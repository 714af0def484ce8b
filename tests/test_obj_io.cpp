// Tests for OBJ import/export.
#include <gtest/gtest.h>

#include <filesystem>
#include <iterator>
#include <sstream>
#include <string>

#include "common/check.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "mesh/human.h"
#include "mesh/obj_io.h"
#include "mesh/primitives.h"

namespace mmhar::mesh {
namespace {

TEST(ObjIo, RoundTripsGeometry) {
  const TriMesh box = make_box({0, 0, 0}, {1, 2, 3}, Material::wood());
  std::stringstream ss;
  write_obj(ss, box);
  const TriMesh back = read_obj(ss);
  ASSERT_EQ(back.num_vertices(), box.num_vertices());
  ASSERT_EQ(back.num_triangles(), box.num_triangles());
  for (std::size_t i = 0; i < box.num_vertices(); ++i) {
    EXPECT_NEAR(back.vertices()[i].x, box.vertices()[i].x, 1e-7);
    EXPECT_NEAR(back.vertices()[i].y, box.vertices()[i].y, 1e-7);
    EXPECT_NEAR(back.vertices()[i].z, box.vertices()[i].z, 1e-7);
  }
  for (std::size_t t = 0; t < box.num_triangles(); ++t) {
    EXPECT_EQ(back.triangles()[t].v0, box.triangles()[t].v0);
    EXPECT_EQ(back.triangles()[t].v2, box.triangles()[t].v2);
  }
}

TEST(ObjIo, ParsesFaceIndexSuffixes) {
  std::stringstream ss("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1/1 2/2/2 3/3/3\n");
  const TriMesh m = read_obj(ss);
  EXPECT_EQ(m.num_triangles(), 1u);
  EXPECT_EQ(m.triangles()[0].v2, 2u);
}

TEST(ObjIo, RejectsMalformedInput) {
  std::stringstream bad_vertex("v 1 2\nf 1 2 3\n");
  EXPECT_THROW(read_obj(bad_vertex), IoError);
  std::stringstream zero_index("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n");
  EXPECT_THROW(read_obj(zero_index), Error);
  // Face indices that std::stoull would throw on, wrap, or half-accept.
  for (const char* face : {"f a b c", "f 1 2 123456789012345678901234",
                           "f -1 2 3", "f 3x 1 2", "f 1 2 +3"}) {
    std::stringstream bad("v 0 0 0\nv 1 0 0\nv 0 1 0\n" + std::string(face));
    EXPECT_THROW(read_obj(bad), IoError) << face;
  }
}

TEST(ObjIo, MutatedMeshesThrowErrorOrStayInRange) {
  // ~200 seeded mutants of a valid mesh (truncations, byte flips, junk
  // tokens): each must either throw mmhar::Error or parse to a mesh whose
  // face indices are all in range; no other exception may escape.
  const TriMesh box = make_box({0, 0, 0}, {1, 2, 3}, Material::wood());
  std::stringstream ss;
  write_obj(ss, box);
  const std::string valid = ss.str();
  const char* const kJunk[] = {"-1", "3x", "abc", "0", "1/2/3", "f", "v",
                               "99999999999999999999999", "1e999", "\n"};
  Rng rng(20261019);
  std::string text;  // hoisted per-mutant scratch
  for (int i = 0; i < 200; ++i) {
    text = valid;
    switch (i % 3) {
      case 0:
        text.resize(rng.index(text.size()));
        break;
      case 1:
        for (int k = 0; k < 4; ++k)
          text[rng.index(text.size())] = static_cast<char>(rng.index(256));
        break;
      default:
        text.insert(rng.index(text.size()),
                    std::string(" ") + kJunk[rng.index(std::size(kJunk))]);
    }
    std::stringstream in(text);
    try {
      const TriMesh back = read_obj(in);
      for (const auto& t : back.triangles()) {
        EXPECT_LT(t.v0, back.num_vertices()) << "mutant " << i;
        EXPECT_LT(t.v1, back.num_vertices()) << "mutant " << i;
        EXPECT_LT(t.v2, back.num_vertices()) << "mutant " << i;
      }
    } catch (const Error&) {
      // Rejected with a diagnosable mmhar error: the contract.
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " escaped as " << e.what() << ":\n"
                    << text;
    }
  }
}

TEST(ObjIo, SavesSequenceWithNumberedNames) {
  const std::string dir = "test_tmp_obj";
  ensure_directory(dir);
  const HumanBody body(BodyParams::participant(0));
  std::vector<TriMesh> frames{body.build(HumanPose{}),
                              body.build(HumanPose{})};
  save_obj_sequence(dir + "/pose", frames);
  EXPECT_TRUE(file_exists(dir + "/pose_0000.obj"));
  EXPECT_TRUE(file_exists(dir + "/pose_0001.obj"));
  std::filesystem::remove_all(dir);
}

TEST(ObjIo, HumanBodyExportIsWellFormed) {
  const HumanBody body(BodyParams::participant(2));
  std::stringstream ss;
  write_obj(ss, body.build(HumanPose{}));
  const TriMesh back = read_obj(ss);
  EXPECT_GT(back.num_triangles(), 200u);
  // All face indices valid.
  for (const auto& t : back.triangles()) {
    EXPECT_LT(t.v0, back.num_vertices());
    EXPECT_LT(t.v1, back.num_vertices());
    EXPECT_LT(t.v2, back.num_vertices());
  }
}

}  // namespace
}  // namespace mmhar::mesh
