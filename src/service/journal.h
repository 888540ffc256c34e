/// \file
/// Journal: the service layer's write-ahead log. One text record per
/// accepted view update, appended and fsync'd *before* the update is
/// published (the append and the fsync are separate calls, so one fsync
/// can cover many appended batches), so that replaying the journal
/// against the seed database deterministically reproduces the served
/// state (sound because constant-
/// complement translators are morphisms — fact (ii) of the Bancilhon–
/// Spyratos framework: translations of a serialized update sequence
/// compose).
///
/// Record format (one line per record):
///
///   rv1 <len> <fnv64-hex> <payload>\n
///
/// where <len> is the byte length of <payload> and <fnv64-hex> is the
/// 16-hex-digit FNV-1a hash of <payload>. The payload spells the update
/// with raw Value ids:
///
///   I <arity> <v...>                 insert
///   D <arity> <v...>                 delete
///   R <arity> <v...> <arity> <w...>  replace t1 -> t2
///
/// A torn or corrupt tail (partial line, length mismatch, checksum
/// mismatch) is detected on read, reported, and truncated away — never a
/// crash. Anything *after* the first bad record is dropped with it, since
/// ordering is what makes replay sound.
///
/// A Journal handle is one segment of the rotated log managed by
/// DurableStore (recovery.h), which adds checkpoint-bounded replay and
/// compaction on top of this format.
#ifndef RELVIEW_SERVICE_JOURNAL_H_
#define RELVIEW_SERVICE_JOURNAL_H_

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/histogram.h"
#include "service/update.h"
#include "util/status.h"

namespace relview {

/// FNV-1a 64-bit over `data`; the journal's record checksum.
uint64_t JournalChecksum(const std::string& data);

/// Serializes `u` as a journal payload (no header, no newline).
std::string EncodeJournalPayload(const ViewUpdate& u);

/// Parses a payload produced by EncodeJournalPayload.
Result<ViewUpdate> DecodeJournalPayload(const std::string& payload);

/// Everything Journal::Read learned about one journal file.
struct JournalReadResult {
  /// The decoded records, in append order.
  std::vector<ViewUpdate> updates;
  /// True when a torn/corrupt tail was found (and truncated, if the
  /// reader was allowed to repair).
  bool truncated = false;
  /// Human-readable description of the truncation, empty otherwise.
  std::string warning;
};

/// An open, append-only journal file.
class Journal {
 public:
  /// Opens (creating if absent) `path` for appending, after verifying the
  /// integrity of the file's final record: a torn tail or a checksum
  /// mismatch yields a typed kCorruption status instead of a handle, so a
  /// writer can never extend past silent damage. Run Read() (with repair)
  /// first to recover a journal that crashed mid-append. When
  /// `fsync_latency` is non-null the journal records into it instead of a
  /// fresh histogram (so rotated segments share one distribution).
  static Result<Journal> Open(
      const std::string& path,
      std::shared_ptr<LatencyHistogram> fsync_latency = nullptr);

  /// Move-only: the moved-from journal gives up its file descriptor.
  Journal(Journal&& o) noexcept;
  /// Move assignment; closes the currently held descriptor first.
  Journal& operator=(Journal&& o) noexcept;
  Journal(const Journal&) = delete;             ///< Not copyable.
  Journal& operator=(const Journal&) = delete;  ///< Not copyable.
  /// Closes the file descriptor (appended records are already fsync'd).
  ~Journal();

  /// Path this journal appends to.
  const std::string& path() const { return path_; }

  /// Per-fsync latency distribution (one sample per successful Sync).
  /// Held behind a shared_ptr so telemetry collectors survive Journal
  /// moves (the histogram itself is atomic and non-movable).
  std::shared_ptr<const LatencyHistogram> fsync_latency() const {
    return fsync_latency_;
  }

  /// Bytes appended through AppendAllUnsynced that no successful Sync()
  /// has covered yet — the data a crash right now would lose without
  /// violating acked ⊆ recovered (the riders were never acked). Relaxed
  /// atomic: scrape-safe from any thread.
  uint64_t unsynced_bytes() const {
    return unsynced_bytes_.load(std::memory_order_relaxed);
  }

  /// Appends all records WITHOUT an fsync: durability is deferred to a
  /// later Sync(). This is the group-commit half-step: several batches
  /// append, then one leader fsyncs for the whole cohort. Records
  /// appended here must not be acknowledged until a Sync() covering them
  /// returns OK. All-or-nothing on the file: a failed write truncates the
  /// file back to the pre-batch offset (and fsyncs the truncation), so a
  /// torn record never outlives the error it reported. If even the
  /// rollback fails, the handle *poisons* itself — every subsequent
  /// append returns kFailedPrecondition until the journal is reopened
  /// (which re-verifies and repairs the tail).
  /// Failpoints: "journal.write" (error, or a short write that models a
  /// crash mid-append: the torn tail stays on disk and the handle is
  /// poisoned), "journal.crash_after_write" (crash between write and
  /// fsync).
  Status AppendAllUnsynced(const std::vector<ViewUpdate>& updates);

  /// Fsyncs everything appended so far (the group-commit leader's half).
  /// Safe to call concurrently with AppendAllUnsynced from another thread:
  /// it touches only the descriptor and atomic state, never the append
  /// offset. On fsync failure the handle poisons itself and every later
  /// append or sync fails with kFailedPrecondition — after a failed fsync
  /// the kernel may have dropped the dirty pages, so retrying could
  /// silently "succeed" without the data (the PostgreSQL fsyncgate
  /// lesson); the only safe continuation is reopen + re-verify. Records
  /// appended but never successfully synced may or may not survive a
  /// crash: they are phantoms, legal under the acked ⊆ recovered
  /// durability contract because no caller was ever acked.
  /// Failpoint: "commit.fsync" (error poisons, crash kills the process).
  Status Sync();

  /// Parses every complete record of the journal at `path`. A torn or
  /// corrupt tail is truncated from the file (when `repair` is true) and
  /// reported via the result's `truncated`/`warning` fields. A missing
  /// file reads as an empty journal.
  static Result<JournalReadResult> Read(const std::string& path,
                                        bool repair = true);

 private:
  explicit Journal(std::string path, int fd) : path_(std::move(path)),
                                               fd_(fd) {}

  /// Truncates the file back to `batch_start` (undoing a failed batch)
  /// and returns `cause`; if the truncation itself fails, poisons the
  /// handle and reports that on top of `cause`.
  Status RollBackTo(off_t batch_start, Status cause);

  std::string path_;
  int fd_ = -1;
  /// Set when a failed append could not be rolled off the file (the tail
  /// no longer ends at a committed record boundary) or when a Sync()
  /// fsync failed (dirty pages may be gone; see Sync). Atomic because the
  /// group-commit leader syncs from a different thread than the appender.
  std::atomic<bool> poisoned_{false};
  /// See unsynced_bytes(). Mutated by the appender (adds) and the commit
  /// leader (zeroes on successful Sync), hence atomic like poisoned_.
  std::atomic<uint64_t> unsynced_bytes_{0};
  std::shared_ptr<LatencyHistogram> fsync_latency_ =
      std::make_shared<LatencyHistogram>();
};

}  // namespace relview

#endif  // RELVIEW_SERVICE_JOURNAL_H_
