// mmhar_check cross-tree fixture: a tools/ member named like the src/
// free function; no src/ call can reach it.
namespace tool {

int Tokens::count() const { return size_; }

}  // namespace tool
