/// \file
/// DurableStore: crash-safe persistence for UpdateService — a rotated,
/// segmented write-ahead journal plus periodic checkpoints, with a unified
/// recovery path (newest valid checkpoint + replay of the journal suffix)
/// that replaces full-journal replay on startup.
///
/// On-disk layout (one directory per served view):
///
///   <dir>/journal-<first_seq %016x>.log    journal segments (journal.h
///                                          record format); first_seq =
///                                          global sequence number of the
///                                          segment's first record
///   <dir>/checkpoint-<seq %016x>.rvc       checkpoints (checkpoint.h
///                                          format); seq = records covered
///   <dir>/*.tmp                            in-flight checkpoint writes;
///                                          deleted on recovery
///
/// The global *sequence number* counts accepted view updates since the
/// seed instance. Invariants maintained across any crash point:
///
///   1. Segments cover a contiguous, gap-free range of sequence numbers;
///      recovery fails with kCorruption if a middle segment is torn or a
///      gap is detected (a torn *tail* of the *last* segment is the normal
///      crash signature and is repaired by truncation).
///   2. Compaction deletes a segment only when the *oldest retained*
///      durable checkpoint covers every record in it, and never deletes
///      the active segment — so the journal suffix past ANY retained
///      checkpoint is always replayable, not just the newest one.
///   3. Checkpoints are written atomically (tmp + rename + dir fsync) and
///      verified by checksum on read; a corrupt checkpoint is skipped
///      (and unlinked) and recovery falls back to the next older one
///      (ultimately the seed) — sound because of invariant 2.
#ifndef RELVIEW_SERVICE_RECOVERY_H_
#define RELVIEW_SERVICE_RECOVERY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "relational/relation.h"
#include "service/journal.h"
#include "util/annotations.h"
#include "util/status.h"

namespace relview {

class ViewTranslator;

/// Tuning and placement knobs for a DurableStore.
struct StoreOptions {
  /// Directory holding segments and checkpoints; created if absent.
  /// Empty disables the store (UpdateService then runs in-memory).
  std::string dir;
  /// Rotate to a fresh segment once the active one holds at least this
  /// many records. A batch is never split across segments.
  uint64_t rotate_records = 4096;
  /// Auto-checkpoint (from UpdateService) once this many records
  /// accumulate past the last checkpoint; 0 = manual checkpoints only.
  uint64_t checkpoint_every = 0;
  /// Newest valid checkpoints kept after compaction (>= 1).
  int keep_checkpoints = 2;
};

/// What recovery found and did; exposed for operators (shell `recover`,
/// telemetry) and asserted on by the torture tests.
struct RecoveryInfo {
  /// True when a checkpoint was loaded (false: full replay from seed).
  bool used_checkpoint = false;
  /// Sequence number of the loaded checkpoint (0 when none).
  uint64_t checkpoint_seq = 0;
  /// Journal records replayed on top of the checkpoint (or seed).
  uint64_t replayed = 0;
  /// Sequence number after recovery (checkpoint_seq + replayed, unless a
  /// newer checkpoint out-ran the journal).
  uint64_t recovered_seq = 0;
  /// Live journal segments after recovery.
  int segments = 0;
  /// Anything non-fatal worth surfacing: repaired torn tails, corrupt
  /// checkpoints skipped, stray tmp files removed.
  std::vector<std::string> warnings;
};

/// The persistence engine behind UpdateService: owns the segment files
/// and checkpoints under StoreOptions::dir. Not internally synchronized —
/// the service serializes all calls behind its writer mutex.
class DurableStore {
 public:
  /// Opens the store and runs recovery into `translator` (which must be
  /// bound to the *seed* instance): loads the newest checkpoint that
  /// verifies, replays the journal suffix past it, repairs a torn tail on
  /// the final segment, and opens the active segment for appending.
  /// Returns kCorruption for damage that breaks replay soundness (middle-
  /// segment truncation, sequence gaps) and kInternal when a journaled
  /// update no longer validates against the recovered state.
  static Result<std::unique_ptr<DurableStore>> Open(
      StoreOptions options, ViewTranslator* translator);

  /// What recovery found when this store was opened.
  const RecoveryInfo& recovery() const { return recovery_; }
  /// The options the store was opened with.
  const StoreOptions& options() const { return options_; }

  /// Appends one batch to the active segment (rotating first if it is
  /// full) WITHOUT fsyncing it — the group-commit staging half. On success
  /// the store's sequence number advances by updates.size(), but the batch
  /// is not durable until a later Sync() returns OK, so callers must not
  /// acknowledge it yet. Like every other mutator this is
  /// writer-serialized (one appender at a time), but it is safe to run
  /// concurrently with Sync() from a commit-leader thread: rotation (the
  /// only operation that swaps the active segment handle) excludes Sync
  /// via an internal mutex, and a full segment is fsync'd before being
  /// closed so rotation never abandons unsynced records.
  Status AppendUnsynced(const std::vector<ViewUpdate>& updates)
      RELVIEW_EXCLUDES(commit_sync_mu_);

  /// Fsyncs the active segment, making every previously appended record
  /// durable — the group-commit leader's half. May be called from any
  /// thread; serialized internally against rotation and other Sync calls.
  /// Skips the fsync entirely when nothing was appended since the last
  /// Sync. A failed fsync poisons the underlying journal (see
  /// Journal::Sync); the store must be reopened to continue. This is the
  /// one fsync-failure policy: truncating the failed batch instead is
  /// unsafe once other batches may sit unsynced behind it.
  /// Failpoints: "commit.crash_before_sync" / "commit.crash_after_sync"
  /// (crash-armed, for the sharded torture test) plus Journal::Sync's
  /// "commit.fsync".
  Status Sync() RELVIEW_EXCLUDES(commit_sync_mu_);

  /// Writes a checkpoint of `database` covering the current sequence
  /// number, then compacts: thins checkpoints down to the newest
  /// options().keep_checkpoints files and deletes segments fully covered
  /// by the *oldest* checkpoint that remains (so recovery can still fall
  /// back from a corrupt newer checkpoint without hitting a journal
  /// gap). Idempotent when a checkpoint at the current sequence number
  /// already exists. Returns the covered sequence number. `database`
  /// must be the state at exactly seq() — the service calls this under
  /// its writer mutex.
  Result<uint64_t> WriteCheckpoint(const Relation& database);

  // The counter accessors below are safe from any thread: the fields are
  // relaxed atomics, mutated only by the single writer (the service
  // serializes AppendUnsynced / WriteCheckpoint behind its writer mutex)
  // but read lock-free by telemetry scrapes. A scrape may observe a
  // mid-batch combination (e.g. seq_ advanced, segment count not yet),
  // which is fine for monitoring; everything else on this class needs the
  // external writer serialization documented above.

  /// Accepted records since the seed (checkpointed + journaled).
  uint64_t seq() const { return seq_.load(std::memory_order_relaxed); }
  /// Sequence number of the newest durable checkpoint (0 = none).
  uint64_t last_checkpoint_seq() const {
    return last_checkpoint_seq_.load(std::memory_order_relaxed);
  }
  /// Records accepted since the last durable checkpoint — the replay debt
  /// a crash would incur right now.
  uint64_t compaction_lag() const { return seq() - last_checkpoint_seq(); }
  /// Checkpoints written by this incarnation (not counting recovered
  /// ones).
  uint64_t checkpoints_written() const {
    return checkpoints_written_.load(std::memory_order_relaxed);
  }
  /// Segments deleted by compaction in this incarnation.
  uint64_t segments_compacted() const {
    return segments_compacted_.load(std::memory_order_relaxed);
  }
  /// Live segment files (including the active one).
  int segment_count() const {
    return segment_count_.load(std::memory_order_relaxed);
  }
  /// Journal bytes staged by AppendUnsynced that no leader fsync has
  /// covered yet — the crash-loss exposure of the group-commit window,
  /// exported per shard as relview_journal_unsynced_bytes. A relaxed
  /// mirror of the active segment's own counter, maintained here because
  /// the active Journal handle is swapped during rotation and scrapes
  /// must never chase it.
  uint64_t unsynced_bytes() const {
    return unsynced_bytes_.load(std::memory_order_relaxed);
  }

  /// Shared fsync-latency histogram spanning all segment rotations.
  std::shared_ptr<const LatencyHistogram> fsync_latency() const {
    return fsync_latency_;
  }

  /// Successful journal fsyncs since open (one histogram sample each):
  /// the denominator-free half of the fsyncs-per-batch amortization
  /// ratio exported as relview_journal_fsyncs_total.
  uint64_t fsyncs() const { return fsync_latency_->count(); }

 private:
  /// One live segment file and the sequence range it is known to hold.
  struct Segment {
    std::string path;
    uint64_t first_seq = 0;
    uint64_t records = 0;
  };

  DurableStore() = default;

  Status Recover(ViewTranslator* translator);
  Status OpenActiveSegment();
  Status Compact();
  std::string SegmentPath(uint64_t first_seq) const;
  std::string CheckpointPath(uint64_t seq) const;
  /// Refreshes segment_count_ after segments_ changed.
  void SyncSegmentCount() {
    segment_count_.store(static_cast<int>(segments_.size()),
                         std::memory_order_relaxed);
  }

  StoreOptions options_;
  RecoveryInfo recovery_;
  std::vector<Segment> segments_;  // ascending first_seq; back() is active
  std::vector<uint64_t> checkpoint_seqs_;  // ascending, on-disk files
  std::optional<Journal> active_;
  /// Serializes Sync() against segment rotation (the only mutation of
  /// `active_` once the store is open) and against other Sync callers.
  /// Plain appends do NOT take it — write(2) and fsync(2) on the same
  /// descriptor are safe concurrently, which is what lets appends
  /// accumulate while the commit leader's fsync is in flight (the whole
  /// point of group commit).
  mutable Mutex commit_sync_mu_;
  /// Sequence number known fsync'd: Sync() skips the syscall when no
  /// record was appended since the last one.
  uint64_t synced_through_ RELVIEW_GUARDED_BY(commit_sync_mu_) = 0;
  // Writer-mutated, scrape-read counters; see the accessor comment above.
  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> unsynced_bytes_{0};  // see unsynced_bytes()
  std::atomic<uint64_t> last_checkpoint_seq_{0};
  std::atomic<uint64_t> checkpoints_written_{0};
  std::atomic<uint64_t> segments_compacted_{0};
  std::atomic<int> segment_count_{0};
  std::shared_ptr<LatencyHistogram> fsync_latency_ =
      std::make_shared<LatencyHistogram>();
};

}  // namespace relview

#endif  // RELVIEW_SERVICE_RECOVERY_H_
