// `mmo` and `mmo_wire`: a game backend's short keyed transactions. One
// session runs a seeded op stream (login, item grant, gold transfer, guild
// join and leave, guild roster molecule, quest tick), each op inside BEGIN
// WORK ... COMMIT WORK through prepared statements. The benchmark keeps its
// own shadow of every value and checks each read against it, and audits the
// whole database against it after the run and after every restart.
#include <algorithm>

#include "workload.h"

namespace perfbench {
namespace {

constexpr int kPlayers = 4096;
constexpr int kGuilds = 256;
constexpr int kItemsPerPlayer = 2;
constexpr int kQuestsPerPlayer = 1;
constexpr int64_t kInitialGold = 1000;
/// Share of players in a guild at population. Joins (10%) and leaves (5%,
/// a leave of a guildless player joins instead) hold membership at 3/4, so
/// starting there keeps roster sizes, and the roster latency, flat over a
/// run of any length.
constexpr double kGuildedShare = 0.75;
constexpr uint64_t kOpStream = 1;
constexpr uint64_t kMembershipStream = 2;

enum Kind : int {
  kLogin = 0,
  kItemGrant,
  kGoldTransfer,
  kGuildJoin,
  kGuildLeave,
  kRoster,
  kQuestTick,
};

const std::vector<const char*> kKindSpans = {
    "op.login",      "op.item_grant", "op.gold_transfer", "op.guild_join",
    "op.guild_leave", "op.roster",    "op.quest_tick"};

/// Positional attributes (SELECT ALL order of the schema below).
constexpr size_t kAccountNo = 1, kAccountLastOp = 2;
constexpr size_t kPlayerNo = 1, kPlayerGold = 3, kPlayerGuild = 6;
constexpr size_t kGuildNo = 1, kGuildMembers = 3;
constexpr size_t kItemNo = 1, kItemCount = 3;
constexpr size_t kQuestNo = 1, kQuestTicks = 2;

const char* kSchema[] = {
    "CREATE ATOM_TYPE account"
    " ( account_id : IDENTIFIER, account_no : INTEGER, last_op : INTEGER,"
    "   player : REF_TO (player.account) )"
    " KEYS_ARE (account_no)",
    "CREATE ATOM_TYPE player"
    " ( player_id : IDENTIFIER, player_no : INTEGER, name : CHAR_VAR,"
    "   gold : INTEGER, touch : INTEGER, account : REF_TO (account.player),"
    "   guild : REF_TO (guild.members),"
    "   items : SET_OF (REF_TO (item.owner)),"
    "   quests : SET_OF (REF_TO (quest.player)) )"
    " KEYS_ARE (player_no)",
    "CREATE ATOM_TYPE guild"
    " ( guild_id : IDENTIFIER, guild_no : INTEGER, name : CHAR_VAR,"
    "   members : SET_OF (REF_TO (player.guild)) )"
    " KEYS_ARE (guild_no)",
    "CREATE ATOM_TYPE item"
    " ( item_id : IDENTIFIER, item_no : INTEGER, kind : INTEGER,"
    "   count : INTEGER, touch : INTEGER, owner : REF_TO (player.items) )"
    " KEYS_ARE (item_no)",
    "CREATE ATOM_TYPE quest"
    " ( quest_id : IDENTIFIER, quest_no : INTEGER, ticks : INTEGER,"
    "   touch : INTEGER, player : REF_TO (player.quests) )"
    " KEYS_ARE (quest_no)",
};

enum Slot : size_t {
  kSelPlayer = 0,
  kTouchPlayer,
  kSetGold,
  kSetGuild,
  kSelItem,
  kTouchItem,
  kSetItemCount,
  kSelQuest,
  kTouchQuest,
  kSetTicks,
  kMarker,
  kRosterScan,
  kSlotCount
};

const char* kSlotMql[kSlotCount] = {
    "SELECT ALL FROM player WHERE player_no = ?",
    "MODIFY player SET touch = ? WHERE player_no = ?",
    "MODIFY player SET gold = ? WHERE player_no = ?",
    "MODIFY player SET guild = ? WHERE player_no = ?",
    "SELECT ALL FROM item WHERE item_no = ?",
    "MODIFY item SET touch = ? WHERE item_no = ?",
    "MODIFY item SET count = ? WHERE item_no = ?",
    "SELECT ALL FROM quest WHERE quest_no = ?",
    "MODIFY quest SET touch = ? WHERE quest_no = ?",
    "MODIFY quest SET ticks = ? WHERE quest_no = ?",
    "MODIFY account SET last_op = ? WHERE account_no = ?",
    "SELECT ALL FROM guild-player-item WHERE guild_no = ?",
};

struct Op {
  Kind kind = kLogin;
  int a = 0, b = 0;  ///< players (transfer source and destination)
  int item = 0, quest = 0, guild = 0;
  int64_t amount = 0;
};

/// Op `seq` of the stream. A leave drawn for a guildless player joins
/// instead, so the plan depends on the memberships so far.
Op Plan(uint64_t seed, uint64_t seq, const std::vector<int>& guild_of) {
  Rng rng = Rng::ForOp(seed, kOpStream, seq);
  Op op;
  const uint64_t pick = rng.Uniform(100);
  op.kind = pick < 25   ? kLogin
            : pick < 40 ? kItemGrant
            : pick < 60 ? kGoldTransfer
            : pick < 70 ? kGuildJoin
            : pick < 75 ? kGuildLeave
            : pick < 90 ? kRoster
                        : kQuestTick;
  switch (op.kind) {
    case kLogin:
      op.a = static_cast<int>(rng.Skewed(kPlayers));
      break;
    case kItemGrant:
      op.item = static_cast<int>(rng.Skewed(kPlayers * kItemsPerPlayer));
      op.amount = 1 + static_cast<int64_t>(rng.Uniform(5));
      break;
    case kGoldTransfer:
      op.a = static_cast<int>(rng.Skewed(kPlayers));
      op.b = static_cast<int>(rng.Skewed(kPlayers));
      if (op.b == op.a) op.b = (op.a + 1) % kPlayers;
      op.amount = 1 + static_cast<int64_t>(rng.Uniform(10));
      break;
    case kGuildJoin:
    case kGuildLeave:
      op.a = static_cast<int>(rng.Uniform(kPlayers));
      op.guild = static_cast<int>(rng.Uniform(kGuilds));
      if (op.kind == kGuildLeave) {
        if (guild_of[op.a] < 0) {
          op.kind = kGuildJoin;
        } else {
          op.guild = guild_of[op.a];
        }
      }
      break;
    case kRoster:
      op.guild = static_cast<int>(rng.Skewed(kGuilds));
      break;
    case kQuestTick:
      op.quest = static_cast<int>(rng.Skewed(kPlayers * kQuestsPerPlayer));
      break;
  }
  return op;
}

/// The benchmark's own copy of every value the op stream changes.
struct Shadow {
  std::vector<int64_t> gold = std::vector<int64_t>(kPlayers, kInitialGold);
  std::vector<int> guild_of = std::vector<int>(kPlayers, -1);
  std::vector<int> members = std::vector<int>(kGuilds, 0);
  std::vector<int64_t> items =
      std::vector<int64_t>(kPlayers * kItemsPerPlayer, 0);
  std::vector<int64_t> quests =
      std::vector<int64_t>(kPlayers * kQuestsPerPlayer, 0);
  int64_t last_write = 0;

  void SetGuild(int p, int g) {
    if (guild_of[p] >= 0) members[guild_of[p]]--;
    guild_of[p] = g;
    if (g >= 0) members[g]++;
  }
  void Apply(const Op& op, uint64_t seq) {
    switch (op.kind) {
      case kGoldTransfer:
        gold[op.a] -= op.amount;
        gold[op.b] += op.amount;
        break;
      case kItemGrant:
        items[op.item] += op.amount;
        break;
      case kQuestTick:
        quests[op.quest] += 1;
        break;
      case kGuildJoin:
        SetGuild(op.a, op.guild);
        break;
      case kGuildLeave:
        SetGuild(op.a, -1);
        break;
      case kLogin:
      case kRoster:
        return;
    }
    last_write = static_cast<int64_t>(seq);
  }
};

class Mmo final : public Workload {
 public:
  explicit Mmo(Env env) : Workload(std::move(env)) {}

  Status Setup() override {
    prima::core::PrimaOptions options;
    PRIMA_RETURN_IF_ERROR(OpenFresh(options, /*file_backed=*/false));
    shadow_ = Shadow();
    PRIMA_RETURN_IF_ERROR(Populate());
    PRIMA_RETURN_IF_ERROR(db_->Flush());
    PRIMA_RETURN_IF_ERROR(OpenConn());
    for (size_t i = 0; i < kSlotCount; ++i) {
      PRIMA_RETURN_IF_ERROR(conn_->Prepare(i, kSlotMql[i]));
    }
    return Status::Ok();
  }

  size_t round_ops() const override { return 100; }
  size_t tail_ops() const override { return 3000; }
  const std::vector<const char*>& kind_spans() const override {
    return kKindSpans;
  }

  Result<OpOutcome> RunOp(uint64_t seq) override {
    const Op op = Plan(env_.seed, seq, shadow_.guild_of);
    PRIMA_RETURN_IF_ERROR(conn_->Begin());
    Status st = Body(op, seq);
    if (!st.ok()) {
      (void)conn_->Abort();
      return st;
    }
    PRIMA_RETURN_IF_ERROR(conn_->Commit());
    shadow_.Apply(op, seq);
    OpOutcome out;
    out.kind = op.kind;
    out.cls = op.kind == kLogin    ? OpClass::kRead
              : op.kind == kRoster ? OpClass::kMolecule
                                   : OpClass::kWrite;
    return out;
  }

  Status Check(prima::core::Prima* db, bool /*full*/) override;

  std::vector<Shape> ExplainShapes() const override {
    return {{"SELECT ALL FROM player WHERE player_no = 7", false},
            {"SELECT ALL FROM guild-player-item WHERE guild_no = 3", false},
            {"MODIFY player SET gold = 5 WHERE player_no = 7", true},
            {"MODIFY item SET count = 5 WHERE item_no = 11", true}};
  }

  void InjectFault() override { shadow_.gold[0] += 1; }

 private:
  Status Populate();
  Status Body(const Op& op, uint64_t seq);

  Status ExecModify(size_t slot) {
    PRIMA_ASSIGN_OR_RETURN(auto r, conn_->ExecutePrepared(slot));
    if (r.count != 1) {
      return Wrong(std::string("MODIFY matched ") + std::to_string(r.count) +
                   " atoms: " + kSlotMql[slot]);
    }
    return Status::Ok();
  }
  /// Keyed read of one integer attribute, checked against the shadow.
  Result<int64_t> ReadInt(size_t slot, int64_t key, size_t attr,
                          int64_t expected, const char* what) {
    PRIMA_RETURN_IF_ERROR(conn_->Bind(slot, 0, Value::Int(key)));
    PRIMA_ASSIGN_OR_RETURN(auto r, conn_->ExecutePrepared(slot));
    if (r.molecules.molecules.size() != 1) {
      return Wrong("keyed read of " + std::to_string(key) + " found " +
                   std::to_string(r.molecules.molecules.size()) + " atoms");
    }
    const int64_t v = r.molecules.molecules[0].groups[0].atoms[0].attrs[attr].AsInt();
    if (v != expected) {
      Mismatch(std::string(what) + " " + std::to_string(key) + ": read " +
               std::to_string(v) + ", shadow " + std::to_string(expected));
    }
    return v;
  }
  /// Touch-lock: a MODIFY takes the write lock before the read, so the
  /// read-modify-write cannot lose an update.
  Status SetInt(size_t slot, int64_t key, int64_t value) {
    PRIMA_RETURN_IF_ERROR(conn_->Bind(slot, 0, Value::Int(value)));
    PRIMA_RETURN_IF_ERROR(conn_->Bind(slot, 1, Value::Int(key)));
    return ExecModify(slot);
  }
  Status Marker(uint64_t seq) {
    return SetInt(kMarker, 0, static_cast<int64_t>(seq));
  }

  Shadow shadow_;
  std::vector<Tid> player_tids_;
  std::vector<Tid> guild_tids_;
};

Status Mmo::Populate() {
  for (const char* stmt : kSchema) {
    PRIMA_RETURN_IF_ERROR(db_->Execute(stmt).status());
  }
  auto session = db_->OpenSession();
  PRIMA_ASSIGN_OR_RETURN(auto ins_guild,
                         session->Prepare("INSERT guild (guild_no = ?, name = ?)"));
  PRIMA_ASSIGN_OR_RETURN(
      auto ins_player,
      session->Prepare("INSERT player (player_no = ?, name = ?, gold = ?, touch = 0)"));
  PRIMA_ASSIGN_OR_RETURN(
      auto ins_member,
      session->Prepare("INSERT player (player_no = ?, name = ?, gold = ?, "
                       "touch = 0, guild = ?)"));
  PRIMA_ASSIGN_OR_RETURN(
      auto ins_item,
      session->Prepare("INSERT item (item_no = ?, kind = ?, count = 0, "
                       "touch = 0, owner = ?)"));
  PRIMA_ASSIGN_OR_RETURN(
      auto ins_quest,
      session->Prepare("INSERT quest (quest_no = ?, ticks = 0, touch = 0, "
                       "player = ?)"));

  size_t in_txn = 0;
  auto insert = [&](prima::core::PreparedStatement& stmt) -> Result<Tid> {
    if (in_txn == 0) PRIMA_RETURN_IF_ERROR(session->Execute("BEGIN WORK").status());
    PRIMA_ASSIGN_OR_RETURN(auto r, stmt.Execute());
    if (++in_txn == 512) {
      PRIMA_RETURN_IF_ERROR(session->Execute("COMMIT WORK").status());
      in_txn = 0;
    }
    return r.tid;
  };

  PRIMA_RETURN_IF_ERROR(
      session->Execute("INSERT account (account_no = 0, last_op = 0)").status());
  guild_tids_.assign(kGuilds, Tid{});
  for (int g = 0; g < kGuilds; ++g) {
    PRIMA_RETURN_IF_ERROR(ins_guild.Bind(0, Value::Int(g)));
    PRIMA_RETURN_IF_ERROR(ins_guild.Bind(1, Value::String("g" + std::to_string(g))));
    PRIMA_ASSIGN_OR_RETURN(guild_tids_[g], insert(ins_guild));
  }
  player_tids_.assign(kPlayers, Tid{});
  for (int p = 0; p < kPlayers; ++p) {
    Rng rng = Rng::ForOp(env_.seed, kMembershipStream, static_cast<uint64_t>(p));
    const bool guilded = rng.Unit() < kGuildedShare;
    const int g = static_cast<int>(rng.Uniform(kGuilds));
    prima::core::PreparedStatement& stmt = guilded ? ins_member : ins_player;
    PRIMA_RETURN_IF_ERROR(stmt.Bind(0, Value::Int(p)));
    PRIMA_RETURN_IF_ERROR(stmt.Bind(1, Value::String("p" + std::to_string(p))));
    PRIMA_RETURN_IF_ERROR(stmt.Bind(2, Value::Int(kInitialGold)));
    if (guilded) PRIMA_RETURN_IF_ERROR(stmt.Bind(3, Value::Ref(guild_tids_[g])));
    PRIMA_ASSIGN_OR_RETURN(player_tids_[p], insert(stmt));
    if (guilded) shadow_.SetGuild(p, g);
  }
  for (int p = 0; p < kPlayers; ++p) {
    for (int k = 0; k < kItemsPerPlayer; ++k) {
      PRIMA_RETURN_IF_ERROR(ins_item.Bind(0, Value::Int(p * kItemsPerPlayer + k)));
      PRIMA_RETURN_IF_ERROR(ins_item.Bind(1, Value::Int(k)));
      PRIMA_RETURN_IF_ERROR(ins_item.Bind(2, Value::Ref(player_tids_[p])));
      PRIMA_RETURN_IF_ERROR(insert(ins_item).status());
    }
    for (int k = 0; k < kQuestsPerPlayer; ++k) {
      PRIMA_RETURN_IF_ERROR(ins_quest.Bind(0, Value::Int(p * kQuestsPerPlayer + k)));
      PRIMA_RETURN_IF_ERROR(ins_quest.Bind(1, Value::Ref(player_tids_[p])));
      PRIMA_RETURN_IF_ERROR(insert(ins_quest).status());
    }
  }
  if (in_txn > 0) PRIMA_RETURN_IF_ERROR(session->Execute("COMMIT WORK").status());
  return Status::Ok();
}

Status Mmo::Body(const Op& op, uint64_t seq) {
  const int64_t touch = static_cast<int64_t>(seq);
  switch (op.kind) {
    case kLogin:
      return ReadInt(kSelPlayer, op.a, kPlayerGold, shadow_.gold[op.a], "gold")
          .status();
    case kItemGrant: {
      PRIMA_RETURN_IF_ERROR(SetInt(kTouchItem, op.item, touch));
      PRIMA_ASSIGN_OR_RETURN(const int64_t count,
                             ReadInt(kSelItem, op.item, kItemCount,
                                     shadow_.items[op.item], "item count"));
      PRIMA_RETURN_IF_ERROR(SetInt(kSetItemCount, op.item, count + op.amount));
      return Marker(seq);
    }
    case kGoldTransfer: {
      // Canonical lock order: the lower player_no is touched first.
      PRIMA_RETURN_IF_ERROR(SetInt(kTouchPlayer, std::min(op.a, op.b), touch));
      PRIMA_RETURN_IF_ERROR(SetInt(kTouchPlayer, std::max(op.a, op.b), touch));
      PRIMA_ASSIGN_OR_RETURN(const int64_t from,
                             ReadInt(kSelPlayer, op.a, kPlayerGold,
                                     shadow_.gold[op.a], "gold"));
      PRIMA_ASSIGN_OR_RETURN(const int64_t to,
                             ReadInt(kSelPlayer, op.b, kPlayerGold,
                                     shadow_.gold[op.b], "gold"));
      PRIMA_RETURN_IF_ERROR(SetInt(kSetGold, op.a, from - op.amount));
      PRIMA_RETURN_IF_ERROR(SetInt(kSetGold, op.b, to + op.amount));
      return Marker(seq);
    }
    case kGuildJoin: {
      // MODIFY (not CONNECT) also locks the old guild, whose member list
      // loses the player.
      PRIMA_RETURN_IF_ERROR(conn_->Bind(kSetGuild, 0, Value::Ref(guild_tids_[op.guild])));
      PRIMA_RETURN_IF_ERROR(conn_->Bind(kSetGuild, 1, Value::Int(op.a)));
      PRIMA_RETURN_IF_ERROR(ExecModify(kSetGuild));
      return Marker(seq);
    }
    case kGuildLeave: {
      PRIMA_RETURN_IF_ERROR(conn_->Execute("DISCONNECT " +
                                           player_tids_[op.a].ToString() +
                                           ".guild FROM " +
                                           guild_tids_[op.guild].ToString())
                                .status());
      return Marker(seq);
    }
    case kRoster: {
      PRIMA_RETURN_IF_ERROR(conn_->Bind(kRosterScan, 0, Value::Int(op.guild)));
      size_t players = 0, items = 0;
      PRIMA_ASSIGN_OR_RETURN(
          const uint64_t n,
          conn_->Scan(kRosterScan, [&](const Molecule& m) {
            if (const auto* g = m.FindGroup("player")) players += g->atoms.size();
            if (const auto* g = m.FindGroup("item")) items += g->atoms.size();
          }));
      const size_t want = static_cast<size_t>(shadow_.members[op.guild]);
      if (n != 1 || players != want || items != want * kItemsPerPlayer) {
        Mismatch("roster of guild " + std::to_string(op.guild) + ": " +
                 std::to_string(n) + " molecules, " + std::to_string(players) +
                 " players, " + std::to_string(items) + " items; shadow has " +
                 std::to_string(want) + " members");
      }
      return Status::Ok();
    }
    case kQuestTick: {
      PRIMA_RETURN_IF_ERROR(SetInt(kTouchQuest, op.quest, touch));
      PRIMA_ASSIGN_OR_RETURN(const int64_t ticks,
                             ReadInt(kSelQuest, op.quest, kQuestTicks,
                                     shadow_.quests[op.quest], "quest ticks"));
      PRIMA_RETURN_IF_ERROR(SetInt(kSetTicks, op.quest, ticks + 1));
      return Marker(seq);
    }
  }
  return Status::InvalidArgument("unknown op kind");
}

Status Bad(const std::string& what, int64_t want, int64_t got) {
  return Status::Corruption(what + ": expected " + std::to_string(want) +
                            ", found " + std::to_string(got));
}

/// Drain `mql` on a fresh session of `db`, visiting each root atom.
Status ForEachAtom(prima::core::Prima* db, const std::string& mql,
                   const std::function<Status(const prima::access::Atom&)>& visit) {
  auto session = db->OpenSession();
  PRIMA_ASSIGN_OR_RETURN(auto cursor, session->Query(mql));
  while (true) {
    PRIMA_ASSIGN_OR_RETURN(auto m, cursor.Next());
    if (!m.has_value()) return Status::Ok();
    PRIMA_RETURN_IF_ERROR(visit(m->groups[0].atoms[0]));
  }
}

Status Mmo::Check(prima::core::Prima* db, bool /*full*/) {
  // Guilds: the members side of the association.
  std::vector<uint64_t> guild_pack(kGuilds, 0);
  std::vector<std::vector<uint64_t>> members(kGuilds);
  int guilds = 0;
  PRIMA_RETURN_IF_ERROR(ForEachAtom(db, "SELECT ALL FROM guild", [&](const auto& a) {
    const int g = static_cast<int>(a.attrs[kGuildNo].AsInt());
    if (g < 0 || g >= kGuilds) return Status::Corruption("stray guild");
    guild_pack[g] = a.tid.Pack();
    for (const Value& e : a.attrs[kGuildMembers].elems()) {
      members[g].push_back(e.AsTid().Pack());
    }
    ++guilds;
    return Status::Ok();
  }));
  if (guilds != kGuilds) return Bad("guild count", kGuilds, guilds);

  // Players: gold value for value, and the player side of the association.
  std::vector<std::vector<uint64_t>> want_members(kGuilds);
  int64_t total = 0;
  int players = 0;
  PRIMA_RETURN_IF_ERROR(ForEachAtom(db, "SELECT ALL FROM player", [&](const auto& a) {
    const int p = static_cast<int>(a.attrs[kPlayerNo].AsInt());
    if (p < 0 || p >= kPlayers) return Status::Corruption("stray player");
    const int64_t gold = a.attrs[kPlayerGold].AsInt();
    total += gold;
    ++players;
    if (gold != shadow_.gold[p]) {
      return Bad("player " + std::to_string(p) + " gold", shadow_.gold[p], gold);
    }
    const Value& ref = a.attrs[kPlayerGuild];
    const bool has = !ref.is_null() && !ref.AsTid().IsNull();
    const int g = shadow_.guild_of[p];
    if (g < 0 && has) {
      return Status::Corruption("player " + std::to_string(p) + " should be guildless");
    }
    if (g >= 0) {
      if (!has || ref.AsTid().Pack() != guild_pack[g]) {
        return Status::Corruption("player " + std::to_string(p) +
                                  " should be in guild " + std::to_string(g));
      }
      want_members[g].push_back(a.tid.Pack());
    }
    return Status::Ok();
  }));
  if (players != kPlayers) return Bad("player count", kPlayers, players);
  if (total != kPlayers * kInitialGold) {
    return Bad("total gold (conservation)", kPlayers * kInitialGold, total);
  }
  // Each guild's member list is exactly the players pointing at it, so no
  // player is listed twice and no back-reference dangles.
  for (int g = 0; g < kGuilds; ++g) {
    std::sort(members[g].begin(), members[g].end());
    std::sort(want_members[g].begin(), want_members[g].end());
    if (members[g] != want_members[g]) {
      return Bad("guild " + std::to_string(g) + " member list size",
                 static_cast<int64_t>(want_members[g].size()),
                 static_cast<int64_t>(members[g].size()));
    }
  }
  // Inventories equal the grants applied; quests the ticks applied.
  PRIMA_RETURN_IF_ERROR(ForEachAtom(db, "SELECT ALL FROM item", [&](const auto& a) {
    const int i = static_cast<int>(a.attrs[kItemNo].AsInt());
    const int64_t count = a.attrs[kItemCount].AsInt();
    if (i < 0 || i >= kPlayers * kItemsPerPlayer) return Status::Corruption("stray item");
    if (count != shadow_.items[i]) {
      return Bad("item " + std::to_string(i) + " count", shadow_.items[i], count);
    }
    return Status::Ok();
  }));
  PRIMA_RETURN_IF_ERROR(ForEachAtom(db, "SELECT ALL FROM quest", [&](const auto& a) {
    const int q = static_cast<int>(a.attrs[kQuestNo].AsInt());
    const int64_t ticks = a.attrs[kQuestTicks].AsInt();
    if (q < 0 || q >= kPlayers * kQuestsPerPlayer) return Status::Corruption("stray quest");
    if (ticks != shadow_.quests[q]) {
      return Bad("quest " + std::to_string(q) + " ticks", shadow_.quests[q], ticks);
    }
    return Status::Ok();
  }));
  // The marker names the last committed write op.
  return ForEachAtom(db, "SELECT ALL FROM account", [&](const auto& a) {
    if (a.attrs[kAccountNo].AsInt() != 0) return Status::Corruption("stray account");
    const int64_t last = a.attrs[kAccountLastOp].AsInt();
    return last == shadow_.last_write ? Status::Ok()
                                      : Bad("last write op", shadow_.last_write, last);
  });
}

}  // namespace

std::unique_ptr<Workload> MakeMmo(Env env) {
  return std::make_unique<Mmo>(std::move(env));
}

}  // namespace perfbench
