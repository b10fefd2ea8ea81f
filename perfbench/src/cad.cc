// `cad`: an engineering design database on a file-backed device with a
// buffer pool several times smaller than the data. The BREP schema of the
// paper's Fig. 2.3 (plus integer keys on face, edge and point, so that an
// edit can address one atom: MQL has no root access by surrogate) holds
// standalone tetrahedra plus a recursive robot assembly, and one session
// runs the four query shapes of Table 2.1:
//   (a) keyed brep-face-edge-point molecule,
//   (b) recursive piece_list from an assembly node,
//   (c) horizontal solid scan with projection (sub = EMPTY),
//   (d) branching FROM with a quantifier and a qualified projection,
// plus durable design edits that rescale one tetrahedron in one transaction.
// The benchmark keeps the scale of every tetrahedron and checks each result
// against what that scale implies.
#include <algorithm>
#include <array>
#include <set>
#include <unordered_map>

#include "workload.h"

namespace perfbench {
namespace {

constexpr int kTetrahedra = 1200;         ///< standalone solids
constexpr int kArity = 3, kDepth = 4;      ///< assembly: 1+3+9+27+81 solids
constexpr int64_t kAssemblyBase = 1000000; ///< solid_no of the assembly root
constexpr size_t kBufferBytes = 1u << 20;  ///< about a quarter of the data
constexpr uint64_t kOpStream = 11;
constexpr uint64_t kScaleStream = 12;

enum Kind : int { kKeyed = 0, kRecursive, kScan, kBranching, kEdit };
const std::vector<const char*> kKindSpans = {
    "op.keyed_molecule", "op.piece_list", "op.solid_scan", "op.branching",
    "op.edit"};

const char* kSchema[] = {
    "CREATE ATOM_TYPE solid"
    " ( solid_id : IDENTIFIER, solid_no : INTEGER, description : CHAR_VAR,"
    "   sub : SET_OF (REF_TO (solid.super)),"
    "   super : SET_OF (REF_TO (solid.sub)),"
    "   brep : REF_TO (brep.solid) )"
    " KEYS_ARE (solid_no)",
    "CREATE ATOM_TYPE brep"
    " ( brep_id : IDENTIFIER, brep_no : INTEGER, hull : HULL_DIM(3),"
    "   solid : REF_TO (solid.brep),"
    "   faces : SET_OF (REF_TO (face.brep)) (4,VAR),"
    "   edges : SET_OF (REF_TO (edge.brep)) (6,VAR),"
    "   points : SET_OF (REF_TO (point.brep)) (4,VAR) )"
    " KEYS_ARE (brep_no)",
    "CREATE ATOM_TYPE face"
    " ( face_id : IDENTIFIER, square_dim : REAL,"
    "   border : SET_OF (REF_TO (edge.face)) (3,VAR),"
    "   crosspoint : SET_OF (REF_TO (point.face)) (3,VAR),"
    "   brep : REF_TO (brep.faces), face_no : INTEGER )"
    " KEYS_ARE (face_no)",
    "CREATE ATOM_TYPE edge"
    " ( edge_id : IDENTIFIER, length : REAL,"
    "   boundary : SET_OF (REF_TO (point.line)) (2,VAR),"
    "   face : SET_OF (REF_TO (face.border)) (2,VAR),"
    "   brep : REF_TO (brep.edges), edge_no : INTEGER )"
    " KEYS_ARE (edge_no)",
    "CREATE ATOM_TYPE point"
    " ( point_id : IDENTIFIER,"
    "   placement : RECORD x_coord, y_coord, z_coord : REAL, END,"
    "   line : SET_OF (REF_TO (edge.boundary)) (1,VAR),"
    "   face : SET_OF (REF_TO (face.crosspoint)) (1,VAR),"
    "   brep : REF_TO (brep.points), point_no : INTEGER )"
    " KEYS_ARE (point_no)",
    "DEFINE MOLECULE TYPE piece_list FROM solid.sub - solid (RECURSIVE)",
};

constexpr size_t kSolidNo = 1;
constexpr size_t kBrepNo = 1;
constexpr size_t kEdgeLength = 1, kEdgeBoundary = 2;
constexpr size_t kPointPlacement = 1;

/// Vertex k of a tetrahedron with scale s is s times this unit vertex.
constexpr double kUnit[4][3] = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
constexpr int kEdgeEnds[6][2] = {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}};
constexpr int kFaceEdges[4][3] = {{0, 1, 3}, {0, 2, 4}, {1, 2, 5}, {3, 4, 5}};
constexpr int kFacePoints[4][3] = {{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}};

/// The squared edge lengths, exactly as the benchmark stores them.
std::array<double, 6> EdgeLengths(double s) {
  std::array<double, 6> out{};
  for (int e = 0; e < 6; ++e) {
    double len2 = 0;
    for (int i = 0; i < 3; ++i) {
      const double d = s * kUnit[kEdgeEnds[e][0]][i] - s * kUnit[kEdgeEnds[e][1]][i];
      len2 += d * d;
    }
    out[e] = len2;
  }
  return out;
}
double FaceArea(double s, int f) { return 0.5 * s * s * (f + 1); }
double InitialScale(Rng& rng) { return 0.5 + 0.25 * static_cast<double>(rng.Uniform(10)); }

Value Point3(double x, double y, double z) {
  return Value::Record({Value::Real(x), Value::Real(y), Value::Real(z)});
}
Value Hull(double s) {
  return Value::List({Value::Real(0), Value::Real(0), Value::Real(0),
                      Value::Real(s), Value::Real(s), Value::Real(s)});
}
Value RefSet(std::initializer_list<Tid> tids) {
  std::vector<Value> elems;
  for (const Tid& t : tids) elems.push_back(Value::Ref(t));
  return Value::List(std::move(elems));
}

struct Tetra {
  int64_t index = 0;  ///< position in Cad::tetras_; keys its points, edges, faces
  int64_t brep_no = 0;
  int64_t solid_no = 0;
  Tid solid, brep;
  std::array<Tid, 4> points;
  std::array<Tid, 6> edges;
  std::array<Tid, 4> faces;
  double scale = 1.0;
};

struct Node {
  int64_t solid_no = 0;
  int level = 0;  ///< 0 = the assembly root
};

enum Slot : size_t {
  kSelKeyed = 0,
  kSelPieces,
  kSelLeaves,
  kSelBranching,
  kSetPoint,
  kSetEdge,
  kSetFace,
  kSetHull,
  kSlotCount
};

const char* kSlotMql[kSlotCount] = {
    "SELECT ALL FROM brep-face-edge-point WHERE brep_no = ?",
    "SELECT ALL FROM piece_list WHERE piece_list (0).solid_no = ?",
    "SELECT solid_no, description FROM solid WHERE sub = EMPTY",
    "SELECT edge, (point, face := SELECT face_id, square_dim FROM face "
    "WHERE square_dim > 5.0E0) FROM brep-edge (face, point) "
    "WHERE brep_no = ? AND EXISTS_AT_LEAST (2) edge: edge.length > 1.0E0",
    "MODIFY point SET placement = ? WHERE point_no = ?",
    "MODIFY edge SET length = ? WHERE edge_no = ?",
    "MODIFY face SET square_dim = ? WHERE face_no = ?",
    "MODIFY brep SET hull = ? WHERE brep_no = ?",
};

class Cad final : public Workload {
 public:
  explicit Cad(Env env) : Workload(std::move(env)) {}

  Status Setup() override {
    prima::core::PrimaOptions options;
    options.storage.buffer_bytes = kBufferBytes;
    PRIMA_RETURN_IF_ERROR(OpenFresh(options, /*file_backed=*/true));
    PRIMA_RETURN_IF_ERROR(Populate());
    PRIMA_RETURN_IF_ERROR(db_->Flush());
    PRIMA_RETURN_IF_ERROR(OpenConn());
    for (size_t i = 0; i < kSlotCount; ++i) {
      PRIMA_RETURN_IF_ERROR(conn_->Prepare(i, kSlotMql[i]));
    }
    return Status::Ok();
  }

  size_t round_ops() const override { return 20; }
  size_t tail_ops() const override { return 400; }
  const std::vector<const char*>& kind_spans() const override { return kKindSpans; }

  Result<OpOutcome> RunOp(uint64_t seq) override;
  Status Check(prima::core::Prima* db, bool full) override;

  std::vector<Shape> ExplainShapes() const override {
    return {{"SELECT ALL FROM brep-face-edge-point WHERE brep_no = 17", false},
            {"SELECT ALL FROM piece_list WHERE piece_list (0).solid_no = " +
                 std::to_string(kAssemblyBase), false},
            {kSlotMql[kSelLeaves], false},
            {"SELECT edge, (point, face := SELECT face_id, square_dim FROM face "
             "WHERE square_dim > 5.0E0) FROM brep-edge (face, point) "
             "WHERE brep_no = 17 AND EXISTS_AT_LEAST (2) edge: edge.length > 1.0E0",
             false},
            {"MODIFY brep SET hull = {0.0, 0.0, 0.0, 1.0, 1.0, 1.0} WHERE brep_no = 17",
             true}};
  }

  void InjectFault() override { tetras_[0].scale += 0.25; }

 private:
  Status Populate();
  Result<Tetra> Insert(int64_t solid_no, int64_t brep_no, double scale);
  Status BuildAssembly(prima::core::Session* s, int64_t solid_no, int level,
                       Tid* root);
  Status CheckTetraMolecule(const Molecule& m, const Tetra& t, bool faces);
  Status Edit(const Tetra& t, double scale);

  Status ExecModify(size_t slot) {
    PRIMA_ASSIGN_OR_RETURN(auto r, conn_->ExecutePrepared(slot));
    if (r.count != 1) {
      return Wrong(std::string("MODIFY matched ") + std::to_string(r.count) +
                   " atoms: " + kSlotMql[slot]);
    }
    return Status::Ok();
  }

  std::vector<Tetra> tetras_;  ///< standalone first, then the assembly's
  std::unordered_map<int64_t, size_t> by_brep_;
  std::unordered_map<uint64_t, std::pair<size_t, int>> point_owner_;  ///< tid -> (tetra, vertex)
  std::vector<Node> nodes_;
  std::set<int64_t> leaves_;  ///< solid_no of every solid with sub = EMPTY

  // Prepared population statements (set-up only).
  std::optional<prima::core::PreparedStatement> ins_solid_, ins_point_, ins_edge_,
      ins_face_, ins_brep_;
  int64_t next_assembly_brep_ = 0;
};

Result<Tetra> Cad::Insert(int64_t solid_no, int64_t brep_no, double scale) {
  Tetra t;
  t.index = static_cast<int64_t>(tetras_.size());
  t.solid_no = solid_no;
  t.brep_no = brep_no;
  t.scale = scale;
  auto run = [](prima::core::PreparedStatement& stmt) -> Result<Tid> {
    PRIMA_ASSIGN_OR_RETURN(auto r, stmt.Execute());
    return r.tid;
  };
  PRIMA_RETURN_IF_ERROR(ins_solid_->Bind(0, Value::Int(solid_no)));
  PRIMA_RETURN_IF_ERROR(
      ins_solid_->Bind(1, Value::String("tetra_" + std::to_string(solid_no))));
  PRIMA_ASSIGN_OR_RETURN(t.solid, run(*ins_solid_));
  for (int k = 0; k < 4; ++k) {
    PRIMA_RETURN_IF_ERROR(ins_point_->Bind(
        0, Point3(scale * kUnit[k][0], scale * kUnit[k][1], scale * kUnit[k][2])));
    PRIMA_RETURN_IF_ERROR(ins_point_->Bind(1, Value::Int(t.index * 4 + k)));
    PRIMA_ASSIGN_OR_RETURN(t.points[k], run(*ins_point_));
  }
  const auto lengths = EdgeLengths(scale);
  for (int e = 0; e < 6; ++e) {
    PRIMA_RETURN_IF_ERROR(ins_edge_->Bind(0, Value::Real(lengths[e])));
    PRIMA_RETURN_IF_ERROR(ins_edge_->Bind(
        1, RefSet({t.points[kEdgeEnds[e][0]], t.points[kEdgeEnds[e][1]]})));
    PRIMA_RETURN_IF_ERROR(ins_edge_->Bind(2, Value::Int(t.index * 6 + e)));
    PRIMA_ASSIGN_OR_RETURN(t.edges[e], run(*ins_edge_));
  }
  for (int f = 0; f < 4; ++f) {
    PRIMA_RETURN_IF_ERROR(ins_face_->Bind(0, Value::Real(FaceArea(scale, f))));
    PRIMA_RETURN_IF_ERROR(ins_face_->Bind(
        1, RefSet({t.edges[kFaceEdges[f][0]], t.edges[kFaceEdges[f][1]],
                   t.edges[kFaceEdges[f][2]]})));
    PRIMA_RETURN_IF_ERROR(ins_face_->Bind(
        2, RefSet({t.points[kFacePoints[f][0]], t.points[kFacePoints[f][1]],
                   t.points[kFacePoints[f][2]]})));
    PRIMA_RETURN_IF_ERROR(ins_face_->Bind(3, Value::Int(t.index * 4 + f)));
    PRIMA_ASSIGN_OR_RETURN(t.faces[f], run(*ins_face_));
  }
  PRIMA_RETURN_IF_ERROR(ins_brep_->Bind(0, Value::Int(brep_no)));
  PRIMA_RETURN_IF_ERROR(ins_brep_->Bind(1, Hull(scale)));
  PRIMA_RETURN_IF_ERROR(ins_brep_->Bind(2, Value::Ref(t.solid)));
  PRIMA_RETURN_IF_ERROR(ins_brep_->Bind(
      3, RefSet({t.faces[0], t.faces[1], t.faces[2], t.faces[3]})));
  PRIMA_RETURN_IF_ERROR(ins_brep_->Bind(
      4, RefSet({t.edges[0], t.edges[1], t.edges[2], t.edges[3], t.edges[4], t.edges[5]})));
  PRIMA_RETURN_IF_ERROR(ins_brep_->Bind(
      5, RefSet({t.points[0], t.points[1], t.points[2], t.points[3]})));
  PRIMA_ASSIGN_OR_RETURN(t.brep, run(*ins_brep_));
  return t;
}

Status Cad::BuildAssembly(prima::core::Session* s, int64_t solid_no, int level,
                          Tid* root) {
  PRIMA_ASSIGN_OR_RETURN(Tetra t, Insert(solid_no, next_assembly_brep_++, 1.0));
  *root = t.solid;
  nodes_.push_back(Node{solid_no, level});
  tetras_.push_back(t);
  if (level == kDepth) {
    leaves_.insert(solid_no);
    return Status::Ok();
  }
  for (int i = 0; i < kArity; ++i) {
    Tid child;
    PRIMA_RETURN_IF_ERROR(BuildAssembly(s, solid_no * 10 + 1 + i, level + 1, &child));
    PRIMA_RETURN_IF_ERROR(
        s->Execute("CONNECT " + t.solid.ToString() + ".sub TO " + child.ToString())
            .status());
  }
  return Status::Ok();
}

Status Cad::Populate() {
  for (const char* stmt : kSchema) {
    PRIMA_RETURN_IF_ERROR(db_->Execute(stmt).status());
  }
  tetras_.clear();
  by_brep_.clear();
  point_owner_.clear();
  nodes_.clear();
  leaves_.clear();
  auto session = db_->OpenSession();
  PRIMA_ASSIGN_OR_RETURN(ins_solid_,
                         session->Prepare("INSERT solid (solid_no = ?, description = ?)"));
  PRIMA_ASSIGN_OR_RETURN(ins_point_, session->Prepare("INSERT point (placement = ?, point_no = ?)"));
  PRIMA_ASSIGN_OR_RETURN(ins_edge_,
                         session->Prepare("INSERT edge (length = ?, boundary = ?, edge_no = ?)"));
  PRIMA_ASSIGN_OR_RETURN(
      ins_face_,
      session->Prepare("INSERT face (square_dim = ?, border = ?, crosspoint = ?, face_no = ?)"));
  PRIMA_ASSIGN_OR_RETURN(
      ins_brep_, session->Prepare("INSERT brep (brep_no = ?, hull = ?, solid = ?, "
                                  "faces = ?, edges = ?, points = ?)"));
  constexpr int kPerTxn = 32;
  for (int i = 0; i < kTetrahedra; ++i) {
    if (i % kPerTxn == 0) PRIMA_RETURN_IF_ERROR(session->Execute("BEGIN WORK").status());
    Rng rng = Rng::ForOp(env_.seed, kScaleStream, static_cast<uint64_t>(i));
    PRIMA_ASSIGN_OR_RETURN(Tetra t, Insert(i + 1, i + 1, InitialScale(rng)));
    tetras_.push_back(t);
    leaves_.insert(t.solid_no);
    if (i % kPerTxn == kPerTxn - 1 || i + 1 == kTetrahedra) {
      PRIMA_RETURN_IF_ERROR(session->Execute("COMMIT WORK").status());
    }
  }
  PRIMA_RETURN_IF_ERROR(session->Execute("BEGIN WORK").status());
  next_assembly_brep_ = kTetrahedra + 1;
  Tid root;
  PRIMA_RETURN_IF_ERROR(BuildAssembly(session.get(), kAssemblyBase, 0, &root));
  PRIMA_RETURN_IF_ERROR(session->Execute("COMMIT WORK").status());
  ins_solid_.reset();
  ins_point_.reset();
  ins_edge_.reset();
  ins_face_.reset();
  ins_brep_.reset();
  for (size_t i = 0; i < tetras_.size(); ++i) {
    by_brep_[tetras_[i].brep_no] = i;
    for (int k = 0; k < 4; ++k) point_owner_[tetras_[i].points[k].Pack()] = {i, k};
  }
  return Status::Ok();
}

/// A brep molecule's points must sit where the tetrahedron's scale puts
/// them, and each edge's length must be the squared distance between its two
/// boundary points.
Status Cad::CheckTetraMolecule(const Molecule& m, const Tetra& t, bool faces) {
  const auto* points = m.FindGroup("point");
  const auto* edges = m.FindGroup("edge");
  if (points == nullptr || edges == nullptr || points->atoms.size() != 4 ||
      edges->atoms.size() != 6 ||
      (faces && (m.FindGroup("face") == nullptr || m.FindGroup("face")->atoms.size() != 4))) {
    return Status::Corruption("brep " + std::to_string(t.brep_no) +
                              ": molecule does not hold 4 points, 6 edges, 4 faces");
  }
  std::unordered_map<uint64_t, std::array<double, 3>> where;
  for (const auto& p : points->atoms) {
    auto owner = point_owner_.find(p.tid.Pack());
    if (owner == point_owner_.end() || owner->second.first != static_cast<size_t>(t.index)) {
      return Status::Corruption("brep " + std::to_string(t.brep_no) + ": foreign point");
    }
    const auto& xyz = p.attrs[kPointPlacement].elems();
    std::array<double, 3> c{};
    for (int i = 0; i < 3; ++i) {
      c[i] = xyz[i].AsReal();
      if (c[i] != t.scale * kUnit[owner->second.second][i]) {
        return Status::Corruption("brep " + std::to_string(t.brep_no) + " vertex " +
                                  std::to_string(owner->second.second) +
                                  ": coordinate " + std::to_string(c[i]) +
                                  " does not match scale " + std::to_string(t.scale));
      }
    }
    where[p.tid.Pack()] = c;
  }
  for (const auto& e : edges->atoms) {
    const auto& ends = e.attrs[kEdgeBoundary].elems();
    if (ends.size() != 2) return Status::Corruption("edge without two boundary points");
    auto p = where.find(ends[0].AsTid().Pack());
    auto q = where.find(ends[1].AsTid().Pack());
    if (p == where.end() || q == where.end()) {
      return Status::Corruption("edge boundary outside its brep");
    }
    double len2 = 0;
    for (int i = 0; i < 3; ++i) {
      const double dd = p->second[i] - q->second[i];
      len2 += dd * dd;
    }
    if (e.attrs[kEdgeLength].AsReal() != len2) {
      return Status::Corruption("brep " + std::to_string(t.brep_no) + ": edge length " +
                                std::to_string(e.attrs[kEdgeLength].AsReal()) +
                                " is not the squared distance " + std::to_string(len2));
    }
  }
  return Status::Ok();
}

Status Cad::Edit(const Tetra& t, double scale) {
  for (int k = 0; k < 4; ++k) {
    PRIMA_RETURN_IF_ERROR(conn_->Bind(
        kSetPoint, 0, Point3(scale * kUnit[k][0], scale * kUnit[k][1], scale * kUnit[k][2])));
    PRIMA_RETURN_IF_ERROR(conn_->Bind(kSetPoint, 1, Value::Int(t.index * 4 + k)));
    PRIMA_RETURN_IF_ERROR(ExecModify(kSetPoint));
  }
  const auto lengths = EdgeLengths(scale);
  for (int e = 0; e < 6; ++e) {
    PRIMA_RETURN_IF_ERROR(conn_->Bind(kSetEdge, 0, Value::Real(lengths[e])));
    PRIMA_RETURN_IF_ERROR(conn_->Bind(kSetEdge, 1, Value::Int(t.index * 6 + e)));
    PRIMA_RETURN_IF_ERROR(ExecModify(kSetEdge));
  }
  for (int f = 0; f < 4; ++f) {
    PRIMA_RETURN_IF_ERROR(conn_->Bind(kSetFace, 0, Value::Real(FaceArea(scale, f))));
    PRIMA_RETURN_IF_ERROR(conn_->Bind(kSetFace, 1, Value::Int(t.index * 4 + f)));
    PRIMA_RETURN_IF_ERROR(ExecModify(kSetFace));
  }
  PRIMA_RETURN_IF_ERROR(conn_->Bind(kSetHull, 0, Hull(scale)));
  PRIMA_RETURN_IF_ERROR(conn_->Bind(kSetHull, 1, Value::Int(t.brep_no)));
  return ExecModify(kSetHull);
}

Result<OpOutcome> Cad::RunOp(uint64_t seq) {
  Rng rng = Rng::ForOp(env_.seed, kOpStream, seq);
  const uint64_t pick = rng.Uniform(100);
  OpOutcome out;
  out.kind = pick < 40 ? kKeyed : pick < 60 ? kRecursive : pick < 65 ? kScan
             : pick < 90 ? kBranching : kEdit;
  switch (out.kind) {
    case kKeyed: {
      out.cls = OpClass::kRead;
      const Tetra& t = tetras_[rng.Uniform(kTetrahedra)];
      PRIMA_RETURN_IF_ERROR(conn_->Bind(kSelKeyed, 0, Value::Int(t.brep_no)));
      Status st;
      size_t atoms = 0;
      PRIMA_ASSIGN_OR_RETURN(const uint64_t n, conn_->Scan(kSelKeyed, [&](const Molecule& m) {
        atoms += m.AtomCount();
        if (st.ok()) st = CheckTetraMolecule(m, t, true);
      }));
      if (n != 1 || atoms != 15) {
        Mismatch("2.1a brep " + std::to_string(t.brep_no) + ": " + std::to_string(n) +
                 " molecules, " + std::to_string(atoms) + " atoms");
      } else if (!st.ok()) {
        Mismatch("2.1a " + st.ToString());
      }
      return out;
    }
    case kRecursive: {
      out.cls = OpClass::kMolecule;
      const Node& node = nodes_[rng.Uniform(nodes_.size())];
      PRIMA_RETURN_IF_ERROR(conn_->Bind(kSelPieces, 0, Value::Int(node.solid_no)));
      std::vector<size_t> levels;
      PRIMA_ASSIGN_OR_RETURN(const uint64_t n, conn_->Scan(kSelPieces, [&](const Molecule& m) {
        for (const auto& level : m.levels) levels.push_back(level.size());
      }));
      // Level k below the node holds arity^k solids, down to the leaves.
      std::vector<size_t> want;
      for (size_t k = 0, width = 1; k <= static_cast<size_t>(kDepth - node.level);
           ++k, width *= kArity) {
        want.push_back(width);
      }
      if (n != 1 || levels != want) {
        Mismatch("2.1b from solid " + std::to_string(node.solid_no) + ": " +
                 std::to_string(n) + " molecules, " + std::to_string(levels.size()) +
                 " levels, want " + std::to_string(want.size()));
      }
      return out;
    }
    case kScan: {
      out.cls = OpClass::kOther;
      std::vector<int64_t> got;
      PRIMA_RETURN_IF_ERROR(conn_->Scan(kSelLeaves, [&](const Molecule& m) {
        got.push_back(m.groups[0].atoms[0].attrs[kSolidNo].AsInt());
      }).status());
      std::sort(got.begin(), got.end());
      if (!std::equal(got.begin(), got.end(), leaves_.begin(), leaves_.end())) {
        Mismatch("2.1c returned " + std::to_string(got.size()) + " solids, want " +
                 std::to_string(leaves_.size()));
      }
      return out;
    }
    case kBranching: {
      out.cls = OpClass::kOther;
      const Tetra& t = tetras_[rng.Uniform(kTetrahedra)];
      PRIMA_RETURN_IF_ERROR(conn_->Bind(kSelBranching, 0, Value::Int(t.brep_no)));
      size_t edges = 0, faces = 0;
      PRIMA_ASSIGN_OR_RETURN(const uint64_t n, conn_->Scan(kSelBranching, [&](const Molecule& m) {
        if (const auto* g = m.FindGroup("edge")) edges += g->atoms.size();
        if (const auto* g = m.FindGroup("face")) faces += g->atoms.size();
      }));
      // EXISTS_AT_LEAST (2) edge.length > 1 holds when at least two of the
      // six stored lengths exceed 1; the projection keeps faces over 5.
      int long_edges = 0;
      for (double len : EdgeLengths(t.scale)) long_edges += len > 1.0 ? 1 : 0;
      size_t big_faces = 0;
      for (int f = 0; f < 4; ++f) big_faces += FaceArea(t.scale, f) > 5.0 ? 1 : 0;
      const uint64_t want = long_edges >= 2 ? 1 : 0;
      if (n != want || (want == 1 && (edges != 6 || faces != big_faces))) {
        Mismatch("2.1d brep " + std::to_string(t.brep_no) + ": " + std::to_string(n) +
                 " molecules with " + std::to_string(edges) + " edges and " +
                 std::to_string(faces) + " faces, want " + std::to_string(want) +
                 " with 6 and " + std::to_string(big_faces));
      }
      return out;
    }
    case kEdit: {
      out.cls = OpClass::kWrite;
      Tetra& t = tetras_[rng.Uniform(kTetrahedra)];
      const double scale = InitialScale(rng);
      PRIMA_RETURN_IF_ERROR(conn_->Begin());
      Status st = Edit(t, scale);
      if (!st.ok()) {
        (void)conn_->Abort();
        return st;
      }
      PRIMA_RETURN_IF_ERROR(conn_->Commit());
      t.scale = scale;
      return out;
    }
  }
  return Status::InvalidArgument("unknown op kind");
}

Status Cad::Check(prima::core::Prima* db, bool full) {
  auto session = db->OpenSession();
  if (!full) {
    // A spot check: the keyed molecule of every 97th tetrahedron.
    PRIMA_ASSIGN_OR_RETURN(auto stmt, session->Prepare(kSlotMql[kSelKeyed]));
    for (size_t i = 0; i < tetras_.size(); i += 97) {
      PRIMA_RETURN_IF_ERROR(stmt.Bind(0, Value::Int(tetras_[i].brep_no)));
      PRIMA_ASSIGN_OR_RETURN(auto r, stmt.Execute());
      if (r.molecules.molecules.size() != 1) {
        return Status::Corruption("brep " + std::to_string(tetras_[i].brep_no) + " missing");
      }
      PRIMA_RETURN_IF_ERROR(CheckTetraMolecule(r.molecules.molecules[0], tetras_[i], true));
    }
    return Status::Ok();
  }
  PRIMA_ASSIGN_OR_RETURN(auto cursor, session->Query("SELECT ALL FROM brep-edge-point"));
  size_t seen = 0;
  while (true) {
    PRIMA_ASSIGN_OR_RETURN(auto m, cursor.Next());
    if (!m.has_value()) break;
    const int64_t brep_no = m->groups[0].atoms[0].attrs[kBrepNo].AsInt();
    auto it = by_brep_.find(brep_no);
    if (it == by_brep_.end()) {
      return Status::Corruption("stray brep " + std::to_string(brep_no));
    }
    PRIMA_RETURN_IF_ERROR(CheckTetraMolecule(*m, tetras_[it->second], false));
    ++seen;
  }
  if (seen != tetras_.size()) {
    return Status::Corruption("found " + std::to_string(seen) + " breps, want " +
                              std::to_string(tetras_.size()));
  }
  return Status::Ok();
}

}  // namespace

std::unique_ptr<Workload> MakeCad(Env env) {
  return std::make_unique<Cad>(std::move(env));
}

}  // namespace perfbench
