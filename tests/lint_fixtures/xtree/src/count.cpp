// mmhar_check cross-tree fixture: the src/ definition of count().
namespace fixture {

int count() { return 1; }

}  // namespace fixture
