/// \file
/// ServiceMetrics: thread-safe observability for the update service —
/// monotonic accept/reject counters per update kind and per rejection
/// StatusCode, plus latency histograms for the check (translatability
/// test) and apply (translation + publish) phases. Everything is
/// lock-free atomics so the writer's hot path never blocks on a scrape.
///
/// Concurrency contract: there is deliberately no mutex here and hence no
/// RELVIEW_GUARDED_BY annotations (util/annotations.h) — the atomics ARE
/// the synchronization. Multi-counter recordings (a rejection bumps both
/// the per-kind and the per-code family; engine gauges publish a dozen
/// fields) are additionally bracketed by a seqlock (WriteScope), so a
/// scrape that reads through ReadConsistent() sees every family from the
/// same side of each recording: sum-over-kinds always equals
/// sum-over-codes in an exported snapshot. The seqlock assumes a single
/// writer at a time — recording methods that take a WriteScope are only
/// called with the service's writer_mu_ held (or before the service is
/// shared). Readers never block the writer; a reader retries (yielding
/// between attempts) until it reads a stable, even sequence, so a consistent
/// read is never torn.

#ifndef RELVIEW_SERVICE_METRICS_H_
#define RELVIEW_SERVICE_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "obs/histogram.h"
#include "service/update.h"
#include "util/status.h"
#include "view/view_index.h"

namespace relview {

/// The update service's counter/latency module. All recording methods
/// are safe from any thread; reads are relaxed-consistent snapshots.
class ServiceMetrics {
 public:
  /// Per-kind counter array size, derived from the enum's sentinel value
  /// so a new kind grows the arrays instead of silently dropping counts.
  static constexpr int kKinds = static_cast<int>(UpdateKind::kNumUpdateKinds);
  /// Per-status-code counter array size; same sentinel-derived scheme.
  static constexpr int kStatusCodes =
      static_cast<int>(StatusCode::kNumStatusCodes);
  static_assert(static_cast<int>(UpdateKind::kReplace) + 1 == kKinds,
                "UpdateKind sentinel must stay last");
  static_assert(static_cast<int>(StatusCode::kCorruption) + 1 == kStatusCodes,
                "StatusCode sentinel must stay last");

  /// Counts one accepted update of `kind`.
  void RecordAccepted(UpdateKind kind);
  /// Counts one rejected update of `kind`, attributed to `code`.
  void RecordRejected(UpdateKind kind, StatusCode code);
  /// Records one translatability-check latency sample. `trace_id` (when
  /// nonzero) becomes the containing bucket's exemplar, linking the
  /// latency distribution to a concrete recorded trace.
  void RecordCheckLatency(int64_t nanos, uint64_t trace_id = 0) {
    check_latency_.RecordTraced(nanos, trace_id);
  }
  /// Records one translation+publish latency sample (exemplar as above).
  void RecordApplyLatency(int64_t nanos, uint64_t trace_id = 0) {
    apply_latency_.RecordTraced(nanos, trace_id);
  }
  /// Counts one committed batch.
  void RecordBatchCommitted() {
    batches_committed_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Counts one rolled-back batch.
  void RecordBatchRolledBack() {
    batches_rolled_back_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Records the size (in batches) of one group-commit cohort: how many
  /// ApplyBatch callers a single leader fsync made durable at once. Called
  /// by the commit leader WITHOUT the writer mutex — the histogram is
  /// lock-free atomics, and no WriteScope is taken (same single-counter
  /// discipline as RecordBatchCommitted).
  void RecordCommitCohort(uint64_t batches) {
    commit_cohorts_.Record(static_cast<int64_t>(batches));
  }
  /// Counts one group-commit stall-watchdog firing (a leader held its
  /// cohort past ServiceOptions::commit_stall_ms). Called by a stuck
  /// waiter without the writer mutex; single relaxed counter.
  void RecordCommitStall() {
    commit_stalls_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Sharded: snapshot reads are the service's hottest path, and a single
  /// counter cache line pinged by every reader caps their scaling.
  void RecordSnapshot();
  /// Counts one update replayed from the journal during Create.
  void RecordReplayedUpdate() {
    replayed_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Publishes a snapshot of the translator's incremental-engine counters
  /// (closure cache, view index, base chase, probe parallelism). Called by
  /// the writer after each committed batch; gauges, not monotonic sums.
  void SetEngineGauges(const EngineStats& stats);

  /// Accepted updates of `kind` so far.
  uint64_t accepted(UpdateKind kind) const {
    return accepted_[static_cast<int>(kind)].load(std::memory_order_relaxed);
  }
  /// Rejected updates of `kind` so far.
  uint64_t rejected(UpdateKind kind) const {
    return rejected_[static_cast<int>(kind)].load(std::memory_order_relaxed);
  }
  /// Rejections attributed to `code` (summed over kinds).
  uint64_t rejected_by_code(StatusCode code) const {
    return rejected_by_code_[static_cast<int>(code)].load(
        std::memory_order_relaxed);
  }
  /// Accepted updates summed over kinds.
  uint64_t total_accepted() const;
  /// Rejected updates summed over kinds.
  uint64_t total_rejected() const;
  /// Batches committed so far.
  uint64_t batches_committed() const {
    return batches_committed_.load(std::memory_order_relaxed);
  }
  /// Batches rolled back so far.
  uint64_t batches_rolled_back() const {
    return batches_rolled_back_.load(std::memory_order_relaxed);
  }
  /// Snapshot() calls served (summed over shards).
  uint64_t snapshots() const;
  /// Journal records replayed during Create.
  uint64_t replayed() const {
    return replayed_.load(std::memory_order_relaxed);
  }
  /// Commit-cohort size distribution (batches per leader fsync). Raw
  /// counts, not nanoseconds — export by hand, not via SummaryFamily.
  const LatencyHistogram& commit_cohorts() const { return commit_cohorts_; }
  /// Stall-watchdog firings so far.
  uint64_t commit_stalls() const {
    return commit_stalls_.load(std::memory_order_relaxed);
  }
  /// Translatability-check latency distribution.
  const LatencyHistogram& check_latency() const { return check_latency_; }
  /// Translation+publish latency distribution.
  const LatencyHistogram& apply_latency() const { return apply_latency_; }
  /// Last-published engine counter snapshot (zeros before the first
  /// SetEngineGauges call).
  EngineStats engine_gauges() const;

  /// The whole module as a single-line JSON object (zero-valued rejection
  /// codes omitted for brevity). Seqlock-consistent: the exported counter
  /// families all come from the same side of any concurrent recording.
  std::string ToJson() const;

  /// Runs `fn` (a pure read of this object's counters returning a value)
  /// under the seqlock read protocol: retried until no WriteScope ran
  /// concurrently, so the values `fn` read are mutually consistent. There
  /// is no give-up path — a torn result is never returned. A lost race
  /// yields the CPU before the retry, so a reader cannot starve the writer
  /// whose scope it is waiting out (write scopes are a handful of relaxed
  /// stores, and the single writer records between long stretches of
  /// translation work). `fn` may run while a write is mid-flight (the torn
  /// result is discarded), so it must be side-effect free.
  template <typename Fn>
  auto ReadConsistent(Fn&& fn) const -> decltype(fn()) {
    for (;; std::this_thread::yield()) {
      // Boehm's seqlock-reader recipe: acquire-load the sequence, do the
      // (relaxed) payload reads, then an acquire fence orders those reads
      // before the re-check of the sequence word.
      const uint64_t s1 = seq_.load(std::memory_order_acquire);
      if (s1 & 1) continue;  // writer mid-scope
      auto result = fn();
      std::atomic_thread_fence(std::memory_order_acquire);
      if (seq_.load(std::memory_order_relaxed) == s1) return result;
    }
  }

  /// RAII seqlock write scope bracketing one multi-counter recording.
  /// Single-writer only (see the class comment): scopes must never nest or
  /// run concurrently.
  class WriteScope {
   public:
    explicit WriteScope(const ServiceMetrics& m) : m_(m) {
      // Odd sequence = write in progress. The release fence orders the
      // sequence bump before the payload stores that follow.
      m_.seq_.store(m_.seq_.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_release);
    }
    ~WriteScope() {
      // Back to even; release-published so a reader that sees the new
      // sequence also sees every payload store of the scope.
      m_.seq_.store(m_.seq_.load(std::memory_order_relaxed) + 1,
                    std::memory_order_release);
    }
    WriteScope(const WriteScope&) = delete;
    WriteScope& operator=(const WriteScope&) = delete;

   private:
    const ServiceMetrics& m_;
  };

 private:
  std::array<std::atomic<uint64_t>, kKinds> accepted_{};
  std::array<std::atomic<uint64_t>, kKinds> rejected_{};
  std::array<std::atomic<uint64_t>, kStatusCodes> rejected_by_code_{};
  struct alignas(64) ShardedCounter {
    std::atomic<uint64_t> value{0};
  };
  static constexpr int kSnapshotShards = 16;

  std::atomic<uint64_t> batches_committed_{0};
  std::atomic<uint64_t> batches_rolled_back_{0};
  std::array<ShardedCounter, kSnapshotShards> snapshot_shards_{};
  std::atomic<uint64_t> replayed_{0};
  LatencyHistogram check_latency_;
  LatencyHistogram apply_latency_;
  /// Batches per group-commit leader fsync (counts, not latencies).
  LatencyHistogram commit_cohorts_;
  std::atomic<uint64_t> commit_stalls_{0};
  /// Engine gauges, mapped 1:1 onto EngineStats' uint64_t fields via the
  /// RELVIEW_ENGINE_STAT_FIELDS X-macro (the hit rate is recomputed from
  /// hits/misses on read so the whole snapshot stays lock-free). The count
  /// is derived from the same list, so a new EngineStats field can't be
  /// dropped here.
#define RELVIEW_ENGINE_COUNT_FIELD(name) +1
  static constexpr int kEngineGauges =
      0 RELVIEW_ENGINE_STAT_FIELDS(RELVIEW_ENGINE_COUNT_FIELD);
#undef RELVIEW_ENGINE_COUNT_FIELD
  std::array<std::atomic<uint64_t>, kEngineGauges> engine_gauges_{};
  /// Seqlock word: odd while a WriteScope is open. Mutable so the const
  /// recording path (scrapes run on const refs) can take read retries.
  mutable std::atomic<uint64_t> seq_{0};

  /// ToJson body; relaxed reads, wrapped by ReadConsistent in ToJson().
  std::string ToJsonRelaxed() const;
};

}  // namespace relview

#endif  // RELVIEW_SERVICE_METRICS_H_
