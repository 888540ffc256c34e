// Journal durability tests: encode/decode round trips, replay equivalence
// (a replayed journal reproduces exactly the directly-updated database —
// fact (ii) in action), torn-tail truncation, divergence detection, and
// the fsync-failure policy (a failed Sync poisons the handle). Each test's
// journal is the first segment of a DurableStore directory, so replay runs
// through the store's recovery path.

#include "service/journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "service/recovery.h"
#include "util/failpoint.h"
#include "view/translator.h"

namespace relview {
namespace {

Tuple Row(std::initializer_list<uint32_t> consts) {
  std::vector<Value> vals;
  for (uint32_t c : consts) vals.push_back(Value::Const(c));
  return Tuple(std::move(vals));
}

/// A fresh Emp-Dept-Mgr translator bound to the canonical instance.
ViewTranslator MakeTranslator() {
  Universe u = Universe::Parse("Emp Dept Mgr").value();
  DependencySet sigma;
  sigma.fds = *FDSet::Parse(u, "Emp -> Dept; Dept -> Mgr");
  auto vt = ViewTranslator::Create(u, sigma, u.SetOf("Emp Dept"),
                                   u.SetOf("Dept Mgr"));
  EXPECT_TRUE(vt.ok()) << vt.status().ToString();
  Relation db(vt->universe().All());
  db.AddRow(Row({1, 10, 100}));
  db.AddRow(Row({2, 10, 100}));
  db.AddRow(Row({3, 20, 200}));
  EXPECT_TRUE(vt->Bind(std::move(db)).ok());
  return std::move(*vt);
}

/// Appends `updates` as one batch and makes it durable: the append and
/// the fsync a lone committer issues.
Status AppendDurably(Journal* j, const std::vector<ViewUpdate>& updates) {
  RELVIEW_RETURN_IF_ERROR(j->AppendAllUnsynced(updates));
  return j->Sync();
}

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "journal_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    path_ = dir_ + "/journal-0000000000000000.log";
  }
  void TearDown() override {
    Failpoints::ClearAll();
    std::filesystem::remove_all(dir_);
  }
  /// Recovers the store directory holding the journal into `vt`.
  Result<std::unique_ptr<DurableStore>> Replay(ViewTranslator* vt) {
    StoreOptions opts;
    opts.dir = dir_;
    return DurableStore::Open(opts, vt);
  }
  std::string dir_;
  std::string path_;
};

TEST_F(JournalTest, PayloadRoundTrip) {
  const ViewUpdate updates[] = {
      ViewUpdate::Insert(Row({4, 10})),
      ViewUpdate::Delete(Row({2, 10})),
      ViewUpdate::Replace(Row({1, 10}), Row({1, 20})),
  };
  for (const ViewUpdate& u : updates) {
    Result<ViewUpdate> back = DecodeJournalPayload(EncodeJournalPayload(u));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_TRUE(*back == u) << u.ToString();
  }
}

TEST_F(JournalTest, PayloadRoundTripPreservesNulls) {
  std::vector<Value> vals = {Value::Const(7), Value::Null(3)};
  const ViewUpdate u = ViewUpdate::Insert(Tuple(std::move(vals)));
  Result<ViewUpdate> back = DecodeJournalPayload(EncodeJournalPayload(u));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(*back == u);
}

TEST_F(JournalTest, ReadOfMissingFileIsEmpty) {
  auto r = Journal::Read(path_);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->updates.empty());
  EXPECT_FALSE(r->truncated);
}

TEST_F(JournalTest, AppendThenReadRoundTrip) {
  {
    auto j = Journal::Open(path_);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE(AppendDurably(&*j, {ViewUpdate::Insert(Row({4, 10}))}).ok());
    ASSERT_TRUE(AppendDurably(&*j, {ViewUpdate::Delete(Row({4, 10})),
                                    ViewUpdate::Replace(Row({1, 10}),
                                                        Row({1, 20}))})
                    .ok());
  }
  auto r = Journal::Read(path_);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->updates.size(), 3u);
  EXPECT_FALSE(r->truncated);
  EXPECT_TRUE(r->updates[0] == ViewUpdate::Insert(Row({4, 10})));
  EXPECT_TRUE(r->updates[2] ==
              ViewUpdate::Replace(Row({1, 10}), Row({1, 20})));
}

TEST_F(JournalTest, ReplayEqualsDirectApplication) {
  // Drive one translator directly and journal the same updates; replaying
  // the journal on a fresh seed must land on the identical relation.
  ViewTranslator direct = MakeTranslator();
  const std::vector<ViewUpdate> updates = {
      ViewUpdate::Insert(Row({4, 10})),
      ViewUpdate::Insert(Row({5, 20})),
      ViewUpdate::Delete(Row({2, 10})),
      ViewUpdate::Replace(Row({4, 10}), Row({4, 20})),
  };
  ASSERT_TRUE(direct.Insert(updates[0].t1).ok());
  ASSERT_TRUE(direct.Insert(updates[1].t1).ok());
  ASSERT_TRUE(direct.Delete(updates[2].t1).ok());
  ASSERT_TRUE(direct.Replace(updates[3].t1, updates[3].t2).ok());

  {
    auto j = Journal::Open(path_);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE(AppendDurably(&*j, updates).ok());
  }
  ViewTranslator replayed = MakeTranslator();
  auto r = Replay(&replayed);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->recovery().replayed, 4u);
  EXPECT_TRUE(replayed.database().SameAs(direct.database()));
}

TEST_F(JournalTest, TruncatedLastRecordRecoversToLastCompleteRecord) {
  {
    auto j = Journal::Open(path_);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE(AppendDurably(&*j, {ViewUpdate::Insert(Row({4, 10}))}).ok());
    ASSERT_TRUE(AppendDurably(&*j, {ViewUpdate::Insert(Row({5, 20}))}).ok());
  }
  // Simulate a torn write: chop bytes off the final record.
  std::ifstream in(path_, std::ios::binary);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(all.data(), static_cast<std::streamsize>(all.size() - 5));
  out.close();

  auto r = Journal::Read(path_);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->truncated);
  EXPECT_FALSE(r->warning.empty());
  ASSERT_EQ(r->updates.size(), 1u);
  EXPECT_TRUE(r->updates[0] == ViewUpdate::Insert(Row({4, 10})));

  // The repair physically truncated the file: a second read is clean and a
  // fresh append after recovery extends from the record boundary.
  auto again = Journal::Read(path_);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->truncated);
  EXPECT_EQ(again->updates.size(), 1u);
  {
    auto j = Journal::Open(path_);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE(AppendDurably(&*j, {ViewUpdate::Delete(Row({4, 10}))}).ok());
  }
  auto final_read = Journal::Read(path_);
  ASSERT_TRUE(final_read.ok());
  EXPECT_FALSE(final_read->truncated);
  EXPECT_EQ(final_read->updates.size(), 2u);
}

TEST_F(JournalTest, CorruptChecksumIsDetected) {
  {
    auto j = Journal::Open(path_);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE(AppendDurably(&*j, {ViewUpdate::Insert(Row({4, 10}))}).ok());
  }
  std::ifstream in(path_, std::ios::binary);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  in.close();
  all[all.size() - 2] ^= 1;  // flip a payload bit, keep length
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out << all;
  out.close();

  auto r = Journal::Read(path_);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->truncated);
  EXPECT_TRUE(r->updates.empty());
}

TEST_F(JournalTest, ReplayOfInvalidUpdateReturnsInternal) {
  // Journal an update that the seed instance rejects (inserting Emp 1 into
  // Dept 20 moves an employee: untranslatable). Replay must refuse with
  // kInternal rather than silently diverge.
  {
    auto j = Journal::Open(path_);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE(AppendDurably(&*j, {ViewUpdate::Insert(Row({1, 20}))}).ok());
  }
  ViewTranslator vt = MakeTranslator();
  auto r = Replay(&vt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST_F(JournalTest, OpenVerifiesFinalRecordChecksum) {
  // The fix for the reopen-after-repair hole: O_APPEND must never extend a
  // journal whose final record does not verify, or everything appended
  // after the bad record would be unreachable to replay.
  {
    auto j = Journal::Open(path_);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE(AppendDurably(&*j, {ViewUpdate::Insert(Row({4, 10}))}).ok());
    ASSERT_TRUE(AppendDurably(&*j, {ViewUpdate::Insert(Row({5, 20}))}).ok());
  }
  // Flip a payload bit of the *final* record, keeping it "complete"
  // (newline-terminated, correct length) — only the checksum can tell.
  std::ifstream in(path_, std::ios::binary);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  in.close();
  all[all.size() - 2] ^= 1;
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out << all;
  out.close();

  auto reopened = Journal::Open(path_);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);

  // Read(repair) truncates the bad record; Open then succeeds and appends
  // land on the repaired boundary.
  auto r = Journal::Read(path_, /*repair=*/true);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->truncated);
  auto again = Journal::Open(path_);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_TRUE(AppendDurably(&*again, {ViewUpdate::Delete(Row({4, 10}))}).ok());
  auto final_read = Journal::Read(path_);
  ASSERT_TRUE(final_read.ok());
  EXPECT_FALSE(final_read->truncated);
  EXPECT_EQ(final_read->updates.size(), 2u);
}

TEST_F(JournalTest, OpenRefusesTornTail) {
  {
    auto j = Journal::Open(path_);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE(AppendDurably(&*j, {ViewUpdate::Insert(Row({4, 10}))}).ok());
  }
  std::ofstream out(path_, std::ios::binary | std::ios::app);
  out << "rv1 57 0123456789abcdef I 2 torn";  // no terminator
  out.close();

  auto reopened = Journal::Open(path_);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);

  auto r = Journal::Read(path_, /*repair=*/true);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->truncated);
  ASSERT_EQ(r->updates.size(), 1u);
  EXPECT_TRUE(Journal::Open(path_).ok());
}

TEST_F(JournalTest, FailedSyncPoisonsUntilRepairAndReopen) {
  // fsync reports EIO on the *second* sync. The first batch lands
  // durably; after the failure the kernel may have dropped the second
  // batch's dirty pages, so the handle refuses every later append and
  // sync (a retried fsync could "succeed" without the data). Repair +
  // reopen restores appends.
  ASSERT_TRUE(Failpoints::Set("commit.fsync", "error@2").ok());
  auto j = Journal::Open(path_);
  ASSERT_TRUE(j.ok());
  ASSERT_TRUE(AppendDurably(&*j, {ViewUpdate::Insert(Row({4, 10}))}).ok());
  ASSERT_TRUE(j->AppendAllUnsynced({ViewUpdate::Insert(Row({5, 20})),
                                    ViewUpdate::Insert(Row({6, 10}))})
                  .ok());
  Status st = j->Sync();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("injected"), std::string::npos);
  EXPECT_GT(j->unsynced_bytes(), 0u);  // the failed batch stays exposed
  Failpoints::ClearAll();
  Status again = j->AppendAllUnsynced({ViewUpdate::Insert(Row({7, 20}))});
  EXPECT_EQ(again.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(j->Sync().code(), StatusCode::kFailedPrecondition);

  // The unsynced batch may or may not have reached the disk; here it did
  // (only the fsync was faked). Either way the file ends at a record
  // boundary, so repair + reopen hands out a working handle again.
  ASSERT_TRUE(Journal::Read(path_, /*repair=*/true).ok());
  auto reopened = Journal::Open(path_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_TRUE(
      AppendDurably(&*reopened, {ViewUpdate::Insert(Row({7, 20}))}).ok());
  auto r = Journal::Read(path_);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->truncated);
  ASSERT_EQ(r->updates.size(), 4u);
  EXPECT_TRUE(r->updates[0] == ViewUpdate::Insert(Row({4, 10})));
  EXPECT_TRUE(r->updates[3] == ViewUpdate::Insert(Row({7, 20})));
}

TEST_F(JournalTest, FailpointShortWritePoisonsHandle) {
  // An injected short write models a crash mid-append: the torn tail
  // stays on disk for the repair path — so the live handle must poison
  // itself, or later batches would land after the tear and be silently
  // dropped at replay.
  auto j = Journal::Open(path_);
  ASSERT_TRUE(j.ok());
  ASSERT_TRUE(AppendDurably(&*j, {ViewUpdate::Insert(Row({4, 10}))}).ok());
  ASSERT_TRUE(Failpoints::Set("journal.write", "short:3").ok());
  ASSERT_FALSE(AppendDurably(&*j, {ViewUpdate::Insert(Row({5, 20}))}).ok());
  Failpoints::ClearAll();
  Status st = AppendDurably(&*j, {ViewUpdate::Insert(Row({6, 10}))});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  // Repair + reopen restores service; nothing appended through the
  // poisoned handle is on disk.
  ASSERT_TRUE(Journal::Read(path_, /*repair=*/true).ok());
  auto again = Journal::Open(path_);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_TRUE(AppendDurably(&*again, {ViewUpdate::Insert(Row({6, 10}))}).ok());
  auto r = Journal::Read(path_);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->truncated);
  ASSERT_EQ(r->updates.size(), 2u);
  EXPECT_TRUE(r->updates[1] == ViewUpdate::Insert(Row({6, 10})));
}

TEST_F(JournalTest, OpenAcceptsFinalRecordLargerThanTailWindow) {
  // One valid record can outgrow the 1 MiB tail-verification window
  // (huge-arity tuples); Open must widen its window, not declare the
  // journal corrupt.
  std::vector<Value> vals;
  vals.reserve(150000);
  for (uint32_t i = 0; i < 150000; ++i) {
    vals.push_back(Value::Const(1000000u + i));
  }
  const ViewUpdate big = ViewUpdate::Insert(Tuple(std::move(vals)));
  ASSERT_GT(EncodeJournalPayload(big).size(), size_t{1} << 20);
  {
    auto j = Journal::Open(path_);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE(AppendDurably(&*j, {big}).ok());
  }
  auto reopened = Journal::Open(path_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_TRUE(
      AppendDurably(&*reopened, {ViewUpdate::Insert(Row({5, 20}))}).ok());
  auto r = Journal::Read(path_);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->truncated);
  ASSERT_EQ(r->updates.size(), 2u);
  EXPECT_TRUE(r->updates[0] == big);
}

TEST_F(JournalTest, FailpointShortWriteOnLengthPrefixRepairsAndReplays) {
  // A short write that tears mid-header (3 bytes keeps only "rv1") leaves
  // a real torn tail on disk; repair must recover exactly the records
  // before it, and replay of the repaired journal must equal direct
  // application of those records (fact (ii)).
  {
    auto j = Journal::Open(path_);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE(AppendDurably(&*j, {ViewUpdate::Insert(Row({4, 10}))}).ok());
    ASSERT_TRUE(Failpoints::Set("journal.write", "short:3").ok());
    Status st = AppendDurably(&*j, {ViewUpdate::Insert(Row({5, 20}))});
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.ToString().find("short write"), std::string::npos);
    Failpoints::ClearAll();
  }
  auto reopened = Journal::Open(path_);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);

  ViewTranslator replayed = MakeTranslator();
  auto r = Replay(&replayed);  // repairs the tail, too
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ((*r)->recovery().warnings.size(), 1u);  // the torn tail
  EXPECT_EQ((*r)->recovery().replayed, 1u);
  r->reset();  // release the segment before reopening it standalone

  ViewTranslator direct = MakeTranslator();
  ASSERT_TRUE(direct.Insert(Row({4, 10})).ok());
  EXPECT_TRUE(replayed.database().SameAs(direct.database()));
  EXPECT_TRUE(Journal::Open(path_).ok());  // repaired: appendable again
}

TEST_F(JournalTest, FailpointWriteErrorLeavesFileUntouched) {
  ASSERT_TRUE(Failpoints::Set("journal.write", "error").ok());
  auto j = Journal::Open(path_);
  ASSERT_TRUE(j.ok());
  Status st = AppendDurably(&*j, {ViewUpdate::Insert(Row({4, 10}))});
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("injected"), std::string::npos);
  auto r = Journal::Read(path_);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->updates.empty());  // the error fired before any byte
  EXPECT_FALSE(r->truncated);
}

TEST_F(JournalTest, ReplayRequiresBoundTranslator) {
  Universe u = Universe::Parse("A B").value();
  DependencySet sigma;
  sigma.fds = *FDSet::Parse(u, "A -> B");
  auto vt = ViewTranslator::Create(u, sigma, u.SetOf("A B"), u.SetOf("B"));
  ASSERT_TRUE(vt.ok());
  auto r = Replay(&*vt);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace relview
