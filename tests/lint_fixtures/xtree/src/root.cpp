// mmhar_check cross-tree fixture: this det root's free call count()
// finds its definition in src/count.cpp and shares its last name with a
// tools/ member. Scanned as text only — never compiled.
namespace fixture {

int det_root() MMHAR_DETERMINISTIC { return count(); }

}  // namespace fixture
