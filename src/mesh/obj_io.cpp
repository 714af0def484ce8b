#include "mesh/obj_io.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "common/check.h"
#include "common/serialize.h"

namespace mmhar::mesh {

void write_obj(std::ostream& os, const TriMesh& mesh) {
  os << "# mmhar-backdoor mesh export\n";
  os << std::setprecision(9);
  for (const auto& v : mesh.vertices())
    os << "v " << v.x << ' ' << v.y << ' ' << v.z << '\n';
  for (const auto& t : mesh.triangles())
    os << "f " << t.v0 + 1 << ' ' << t.v1 + 1 << ' ' << t.v2 + 1 << '\n';
  if (!os) throw IoError("write_obj: stream failure");
}

void save_obj(const std::string& path, const TriMesh& mesh) {
  // OBJ is a plain-text interchange format consumed by external tools
  // (Blender, meshlab), so it cannot live inside save_artifact's binary
  // container. Keep the export crash-safe the same way the store does:
  // write a sibling temp file, then atomically rename over the target.
  const std::string tmp = path + ".tmp";
  {
    // Third-party text format; made atomic via temp file + rename below
    // instead of save_artifact. mmhar: allow(naked-cache-write)
    std::ofstream os(tmp, std::ios::trunc);
    if (!os) throw IoError("save_obj: cannot open " + tmp);
    write_obj(os, mesh);
    os.flush();
    if (!os) throw IoError("save_obj: write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw IoError("save_obj: cannot rename " + tmp + " to " + path);
  }
}

void save_obj_sequence(const std::string& prefix,
                       const std::vector<TriMesh>& frames) {
  for (std::size_t f = 0; f < frames.size(); ++f) {
    std::ostringstream name;
    name << prefix << '_' << std::setw(4) << std::setfill('0') << f
         << ".obj";
    save_obj(name.str(), frames[f]);
  }
}

namespace {

// One 1-based face index: the digits before an optional /texture/normal
// suffix, with no sign, no trailing junk and no overflow. Anything else
// is an IoError naming the line.
std::size_t parse_face_index(const std::string& token,
                             const std::string& line) {
  const std::string digits = token.substr(0, token.find('/'));
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(digits.c_str(), &end, 10);
  if (digits.empty() || !std::isdigit(static_cast<unsigned char>(digits[0])) ||
      *end != '\0' || errno == ERANGE)
    throw IoError("read_obj: malformed face index '" + token + "': " + line);
  if (value == 0)
    throw IoError("read_obj: OBJ faces are 1-indexed: " + line);
  return static_cast<std::size_t>(value);
}

}  // namespace

TriMesh read_obj(std::istream& is) {
  TriMesh mesh;
  std::string line;
  std::string tag;    // hoisted per-line scratch
  std::string token;  // hoisted per-face scratch
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    tag.clear();  // `ls >> tag` leaves it untouched on an empty line
    ls >> tag;
    if (tag == "v") {
      Vec3 v;
      ls >> v.x >> v.y >> v.z;
      if (ls.fail()) throw IoError("read_obj: malformed vertex: " + line);
      mesh.add_vertex(v);
    } else if (tag == "f") {
      // Accept "f i j k" with optional /texture/normal suffixes.
      std::size_t idx[3];
      for (auto& out : idx) {
        token.clear();  // extraction at EOF leaves the string untouched
        ls >> token;
        if (token.empty()) throw IoError("read_obj: malformed face: " + line);
        out = parse_face_index(token, line);
      }
      mesh.add_triangle(idx[0] - 1, idx[1] - 1, idx[2] - 1, Material{});
    }
  }
  return mesh;
}

}  // namespace mmhar::mesh
