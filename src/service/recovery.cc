#include "service/recovery.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/trace.h"
#include "service/checkpoint.h"
#include "util/failpoint.h"
#include "view/translator.h"

namespace relview {
namespace {

constexpr char kSegmentPrefix[] = "journal-";
constexpr char kSegmentSuffix[] = ".log";
constexpr char kCheckpointPrefix[] = "checkpoint-";
constexpr char kCheckpointSuffix[] = ".rvc";

/// mkdir -p: creates every missing component of `path`.
Status MakeDirs(const std::string& path) {
  std::string prefix;
  size_t begin = 0;
  while (begin <= path.size()) {
    size_t end = path.find('/', begin);
    if (end == std::string::npos) end = path.size();
    prefix = path.substr(0, end);
    begin = end + 1;
    if (prefix.empty()) continue;  // leading '/'
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::Internal("cannot create directory " + prefix + ": " +
                              std::strerror(errno));
    }
  }
  return Status::OK();
}

/// Parses "<prefix><16 hex digits><suffix>"; returns the hex value or
/// nullopt when `name` has a different shape.
std::optional<uint64_t> ParseSeqName(const std::string& name,
                                     const char* prefix,
                                     const char* suffix) {
  const size_t plen = std::strlen(prefix);
  const size_t slen = std::strlen(suffix);
  if (name.size() != plen + 16 + slen) return std::nullopt;
  if (name.compare(0, plen, prefix) != 0) return std::nullopt;
  if (name.compare(plen + 16, slen, suffix) != 0) return std::nullopt;
  const std::string hex = name.substr(plen, 16);
  char* end = nullptr;
  const unsigned long long v = std::strtoull(hex.c_str(), &end, 16);
  if (end == nullptr || *end != '\0') return std::nullopt;
  return static_cast<uint64_t>(v);
}

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// Applies one recovered record; a rejection means the journal and the
/// recovered base state have diverged (fact (ii) forbids this), so it is
/// surfaced as kInternal, never guessed around.
Status ApplyRecovered(ViewTranslator* translator, const ViewUpdate& u,
                      uint64_t seq) {
  Status st;
  switch (u.kind) {
    case UpdateKind::kInsert:
      st = translator->Insert(u.t1);
      break;
    case UpdateKind::kDelete:
      st = translator->Delete(u.t1);
      break;
    case UpdateKind::kReplace:
      st = translator->Replace(u.t1, u.t2);
      break;
    case UpdateKind::kNumUpdateKinds:
      st = Status::Internal("recovery: sentinel update kind");
      break;
  }
  if (!st.ok()) {
    return Status::Internal("recovery replay diverged at seq " +
                            std::to_string(seq) + " (" + u.ToString() +
                            "): " + st.ToString());
  }
  return Status::OK();
}

}  // namespace

std::string DurableStore::SegmentPath(uint64_t first_seq) const {
  char name[64];
  std::snprintf(name, sizeof(name), "%s%016llx%s", kSegmentPrefix,
                static_cast<unsigned long long>(first_seq), kSegmentSuffix);
  return options_.dir + "/" + name;
}

std::string DurableStore::CheckpointPath(uint64_t seq) const {
  char name[64];
  std::snprintf(name, sizeof(name), "%s%016llx%s", kCheckpointPrefix,
                static_cast<unsigned long long>(seq), kCheckpointSuffix);
  return options_.dir + "/" + name;
}

Result<std::unique_ptr<DurableStore>> DurableStore::Open(
    StoreOptions options, ViewTranslator* translator) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("DurableStore needs a data directory");
  }
  if (options.rotate_records == 0 || options.keep_checkpoints < 1) {
    return Status::InvalidArgument(
        "DurableStore: rotate_records >= 1 and keep_checkpoints >= 1");
  }
  if (translator == nullptr || !translator->bound()) {
    return Status::FailedPrecondition(
        "DurableStore recovery needs a translator bound to the seed "
        "instance");
  }
  RELVIEW_RETURN_IF_ERROR(MakeDirs(options.dir));
  std::unique_ptr<DurableStore> store(new DurableStore());
  store->options_ = std::move(options);
  RELVIEW_RETURN_IF_ERROR(store->Recover(translator));
  RELVIEW_RETURN_IF_ERROR(store->OpenActiveSegment());
  store->recovery_.segments = store->segment_count();
  return store;
}

Status DurableStore::Recover(ViewTranslator* translator) {
  RELVIEW_TRACE_SPAN_N(span, "recovery.open");

  // 1. Scan the directory: segments, checkpoints, stray tmp files.
  std::vector<uint64_t> checkpoint_seqs;
  DIR* dir = ::opendir(options_.dir.c_str());
  if (dir == nullptr) {
    return Status::Internal("cannot open store directory " + options_.dir +
                            ": " + std::strerror(errno));
  }
  while (struct dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (auto seq = ParseSeqName(name, kSegmentPrefix, kSegmentSuffix)) {
      segments_.push_back(Segment{options_.dir + "/" + name, *seq, 0});
    } else if (auto cs =
                   ParseSeqName(name, kCheckpointPrefix, kCheckpointSuffix)) {
      checkpoint_seqs.push_back(*cs);
    } else if (EndsWith(name, ".tmp")) {
      // An in-flight checkpoint that never reached its rename: worthless.
      ::unlink((options_.dir + "/" + name).c_str());
      recovery_.warnings.push_back("removed in-flight tmp file " + name);
    }
  }
  ::closedir(dir);
  std::sort(segments_.begin(), segments_.end(),
            [](const Segment& a, const Segment& b) {
              return a.first_seq < b.first_seq;
            });
  std::sort(checkpoint_seqs.begin(), checkpoint_seqs.end());

  // 2. Newest checkpoint that verifies wins; corrupt ones are skipped
  //    (and reported) so a flipped bit degrades to a longer replay, not
  //    an outage. A known-corrupt file is also unlinked and dropped from
  //    checkpoint_seqs_ — were it retained, thinning would count the dead
  //    file toward keep_checkpoints and could evict a *valid* older
  //    checkpoint instead.
  const AttrSet all = translator->universe().All();
  size_t corrupt = 0;
  for (auto it = checkpoint_seqs.rbegin(); it != checkpoint_seqs.rend();
       ++it) {
    Result<CheckpointData> ckpt = ReadCheckpoint(CheckpointPath(*it), all);
    if (ckpt.ok()) {
      translator->InstallDatabase(std::move(ckpt->database));
      recovery_.used_checkpoint = true;
      recovery_.checkpoint_seq = ckpt->seq;
      last_checkpoint_seq_.store(ckpt->seq, std::memory_order_relaxed);
      break;
    }
    recovery_.warnings.push_back("skipping checkpoint " +
                                 std::to_string(*it) + ": " +
                                 ckpt.status().ToString() + " (removed)");
    ::unlink(CheckpointPath(*it).c_str());
    ++corrupt;
  }
  // The failures form a suffix of the ascending list (newest first, stop
  // at the first success).
  checkpoint_seqs.resize(checkpoint_seqs.size() - corrupt);
  checkpoint_seqs_ = std::move(checkpoint_seqs);
  const uint64_t ckpt_seq = recovery_.checkpoint_seq;

  // 3. Replay the journal suffix past the checkpoint. Segments fully
  //    covered by it (their successor starts at or before ckpt_seq) are
  //    not even read; the first replayed segment may straddle the
  //    checkpoint, in which case the covered prefix is skipped.
  RELVIEW_TRACE_SPAN_N(replay_span, "recovery.replay");
  size_t start = 0;
  while (start + 1 < segments_.size() &&
         segments_[start + 1].first_seq <= ckpt_seq) {
    ++start;
  }
  uint64_t recovered_seq = ckpt_seq;
  for (size_t i = start; i < segments_.size(); ++i) {
    Segment& seg = segments_[i];
    const bool is_last = i + 1 == segments_.size();
    if (i == start) {
      if (seg.first_seq > ckpt_seq) {
        return Status::Corruption(
            "journal gap: records [" + std::to_string(ckpt_seq) + ", " +
            std::to_string(seg.first_seq) + ") are on no segment and no "
            "checkpoint covers them");
      }
    } else if (seg.first_seq != recovered_seq) {
      return Status::Corruption("journal gap: segment " + seg.path +
                                " starts at " +
                                std::to_string(seg.first_seq) +
                                " but the previous segment ends at " +
                                std::to_string(recovered_seq));
    }
    // Only the final segment may legitimately carry a torn tail (the
    // crash signature); truncation earlier in the chain would silently
    // drop records that later segments build on.
    RELVIEW_ASSIGN_OR_RETURN(JournalReadResult read,
                             Journal::Read(seg.path, /*repair=*/is_last));
    if (read.truncated && !is_last) {
      return Status::Corruption("journal segment " + seg.path +
                                " is torn mid-log: " + read.warning);
    }
    if (read.truncated) {
      recovery_.warnings.push_back(read.warning);
    }
    seg.records = read.updates.size();
    const uint64_t skip = seg.first_seq < ckpt_seq
                              ? std::min<uint64_t>(ckpt_seq - seg.first_seq,
                                                   read.updates.size())
                              : 0;
    for (uint64_t r = skip; r < read.updates.size(); ++r) {
      RELVIEW_RETURN_IF_ERROR(
          ApplyRecovered(translator, read.updates[r], seg.first_seq + r));
      ++recovery_.replayed;
    }
    recovered_seq = std::max(recovered_seq, seg.first_seq + seg.records);
  }
  seq_.store(recovered_seq, std::memory_order_relaxed);
  SyncSegmentCount();
  recovery_.recovered_seq = recovered_seq;
  replay_span.AddArg("replayed", recovery_.replayed);
  span.AddArg("seq", recovered_seq);
  return Status::OK();
}

Status DurableStore::OpenActiveSegment() {
  if (!segments_.empty() &&
      segments_.back().records < options_.rotate_records) {
    // Resume the last segment (tail already repaired/verified).
    RELVIEW_ASSIGN_OR_RETURN(
        Journal j, Journal::Open(segments_.back().path, fsync_latency_));
    active_ = std::move(j);
    return Status::OK();
  }
  const uint64_t cur = seq();
  segments_.push_back(Segment{SegmentPath(cur), cur, 0});
  SyncSegmentCount();
  RELVIEW_ASSIGN_OR_RETURN(
      Journal j, Journal::Open(segments_.back().path, fsync_latency_));
  active_ = std::move(j);
  return Status::OK();
}

Status DurableStore::AppendUnsynced(const std::vector<ViewUpdate>& updates) {
  if (!active_.has_value()) {
    return Status::FailedPrecondition("durable store not open");
  }
  if (updates.empty()) return Status::OK();
  if (segments_.back().records >= options_.rotate_records) {
    RELVIEW_TRACE_SPAN("journal.rotate");
    // Rotation swaps the handle the commit leader fsyncs through, so it
    // excludes Sync(). The retiring segment may hold records no leader
    // has synced yet — fsync it before closing, or they could be lost
    // with no Sync() left that reaches them.
    MutexLock lock(commit_sync_mu_);
    RELVIEW_RETURN_IF_ERROR(active_->Sync());
    active_.reset();
    const uint64_t cur = seq();
    segments_.push_back(Segment{SegmentPath(cur), cur, 0});
    SyncSegmentCount();
    RELVIEW_ASSIGN_OR_RETURN(
        Journal j, Journal::Open(segments_.back().path, fsync_latency_));
    active_ = std::move(j);
    synced_through_ = cur;
  }
  RELVIEW_RETURN_IF_ERROR(active_->AppendAllUnsynced(updates));
  segments_.back().records += updates.size();
  seq_.fetch_add(updates.size(), std::memory_order_relaxed);
  // Mirror the active journal's unsynced-byte count for scrapes (which
  // must not read through active_ — rotation swaps it).
  unsynced_bytes_.store(active_->unsynced_bytes(), std::memory_order_relaxed);
  return Status::OK();
}

Status DurableStore::Sync() {
  MutexLock lock(commit_sync_mu_);
  if (!active_.has_value()) {
    return Status::FailedPrecondition("durable store not open");
  }
  // Read seq_ BEFORE the fsync: records appended while the fsync is in
  // flight may or may not be covered by it, so claiming them would let a
  // later Sync skip an fsync they still need. Under-claiming merely costs
  // an extra (correct) fsync.
  const uint64_t upto = seq();
  if (synced_through_ >= upto) return Status::OK();
  RELVIEW_FAILPOINT("commit.crash_before_sync");  // crash-armed only
  RELVIEW_RETURN_IF_ERROR(active_->Sync());
  RELVIEW_FAILPOINT("commit.crash_after_sync");  // crash-armed only
  synced_through_ = upto;
  // Journal::Sync claimed its own unsynced-byte counter; re-read it (an
  // appender may have raced more bytes in) rather than storing zero.
  unsynced_bytes_.store(active_->unsynced_bytes(), std::memory_order_relaxed);
  return Status::OK();
}

Result<uint64_t> DurableStore::WriteCheckpoint(const Relation& database) {
  const uint64_t seq = this->seq();
  // Idempotent at a fixed seq: a durable checkpoint covering exactly this
  // state already exists, and pushing seq again would make thinning erase
  // two list entries for the one on-disk file, silently shrinking the
  // real fallback depth below keep_checkpoints.
  if (!checkpoint_seqs_.empty() && checkpoint_seqs_.back() == seq) {
    return seq;
  }
  RELVIEW_RETURN_IF_ERROR(::relview::WriteCheckpoint(
      CheckpointPath(seq), database, seq, CheckpointFormat::kRows));
  last_checkpoint_seq_.store(seq, std::memory_order_relaxed);
  checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
  checkpoint_seqs_.push_back(seq);
  RELVIEW_RETURN_IF_ERROR(Compact());
  return seq;
}

Status DurableStore::Compact() {
  RELVIEW_TRACE_SPAN_N(span, "ckpt.compact");
  // Thin old checkpoints first: keep the newest keep_checkpoints files.
  while (static_cast<int>(checkpoint_seqs_.size()) >
         options_.keep_checkpoints) {
    const uint64_t victim = checkpoint_seqs_.front();
    if (::unlink(CheckpointPath(victim).c_str()) != 0 && errno != ENOENT) {
      return Status::Internal("compaction: cannot delete checkpoint " +
                              std::to_string(victim) + ": " +
                              std::strerror(errno));
    }
    checkpoint_seqs_.erase(checkpoint_seqs_.begin());
  }
  // A segment may go only when the *oldest retained* checkpoint covers
  // every record in it — i.e. its successor begins at or before that
  // checkpoint — and the active (last) segment always stays. Bounding by
  // the oldest (not the newest) checkpoint keeps the fallback promise:
  // should the newest checkpoint later fail verification, recovery can
  // load any retained older one and still find the journal suffix past
  // it on disk. Deletion order is oldest first, so a crash
  // mid-compaction leaves a prefix-trimmed, still contiguous chain.
  const uint64_t covered =
      checkpoint_seqs_.empty() ? 0 : checkpoint_seqs_.front();
  uint64_t deleted = 0;
  while (segments_.size() >= 2 && segments_[1].first_seq <= covered) {
    if (::unlink(segments_.front().path.c_str()) != 0 && errno != ENOENT) {
      return Status::Internal("compaction: cannot delete " +
                              segments_.front().path + ": " +
                              std::strerror(errno));
    }
    segments_.erase(segments_.begin());
    SyncSegmentCount();
    segments_compacted_.fetch_add(1, std::memory_order_relaxed);
    ++deleted;
    RELVIEW_FAILPOINT("compact.crash_mid_delete");  // crash-armed only
  }
  span.AddArg("segments_deleted", deleted);
  return Status::OK();
}

}  // namespace relview
