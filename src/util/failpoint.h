// Failpoints: deterministic fault injection for the durability paths.
//
// A failpoint is a named site compiled into production code (journal
// writes, checkpoint renames, fsyncs). It is inert until *armed* — by a
// test via Failpoints::Set, or by an operator via the RELVIEW_FAILPOINTS
// environment variable — and then fires a prescribed fault on a
// prescribed hit count, so every failure schedule is reproducible from a
// one-line spec. The disarmed fast path is one relaxed atomic load.
//
// Spec grammar (one failpoint):
//
//   <action>[@<nth>][*<times>][:<arg>]
//
//   action  error       site reports an injected I/O error
//           short       site performs a short write (arg = bytes kept;
//                       default: half the buffer), then reports an error
//           crash       the process exits immediately with
//                       kCrashExitCode (no destructors, no flushes —
//                       simulates kill -9 / power loss)
//           flip        site flips one bit in the data it is about to
//                       write (arg = byte offset from the end; default 1)
//           sleep       Check blocks for arg milliseconds (default 10),
//                       then reports NO fault — the site proceeds
//                       normally, just late. Simulates a stalled disk /
//                       fsync outlier for the latency watchdogs without
//                       tripping any error path.
//           off         disarm
//   @nth    first hit that fires, 1-based (default 1: fire immediately)
//   *times  number of consecutive hits that fire (default 1;
//           *0 = unlimited)
//
// Environment form (RELVIEW_FAILPOINTS): semicolon-separated
// "name=spec" pairs, e.g.
//
//   RELVIEW_FAILPOINTS="commit.fsync=error@3;checkpoint.rename=crash"
//
// Sites (see docs/OPERATIONS.md for the full catalog) call
// Failpoints::Check("name") on every pass; the returned FailpointHit
// says which fault, if any, to inject. kCrash is handled inside Check —
// the call does not return.

#ifndef RELVIEW_UTIL_FAILPOINT_H_
#define RELVIEW_UTIL_FAILPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace relview {

/// The fault a failpoint site must inject on this hit.
enum class FailpointAction {
  /// No fault; proceed normally.
  kOff = 0,
  /// Report an injected I/O error (sites use their real error path).
  kError,
  /// Write only FailpointHit::arg bytes, then report an error.
  kShortWrite,
  /// Process exit without cleanup (performed inside Check; never seen).
  kCrash,
  /// Flip one bit of the outgoing data, FailpointHit::arg bytes from its
  /// end, then proceed "successfully" (simulates silent corruption).
  kFlipBit,
  /// Delay injection: Check sleeps `arg` milliseconds and then reports
  /// kOff (performed inside Check; never seen by sites). Simulates a
  /// stalled device without taking any error path.
  kSleep,
};

/// Verdict of one Failpoints::Check call.
struct FailpointHit {
  FailpointAction action = FailpointAction::kOff;
  /// kShortWrite: bytes to keep (0 = keep half). kFlipBit: byte offset
  /// from the end of the buffer whose low bit to flip.
  uint64_t arg = 0;

  /// True when a fault must be injected.
  explicit operator bool() const { return action != FailpointAction::kOff; }
};

/// Marks a named fault-injection site. Expands to Failpoints::Check; use
/// the macro (not a direct call) so tools/relview_lint.py can enforce
/// that every site name is unique across the tree and documented in
/// docs/OPERATIONS.md. `name` must be a string literal.
#define RELVIEW_FAILPOINT(name) ::relview::Failpoints::Check(name)

/// Process-wide registry of armed failpoints. All methods are
/// thread-safe; Check is wait-free when nothing is armed.
class Failpoints {
 public:
  /// Exit code used by `crash` so harnesses can distinguish an injected
  /// crash from a real abort.
  static constexpr int kCrashExitCode = 42;

  /// Arms (or re-arms) `name` with `spec` (grammar above). "off" or an
  /// empty spec disarms. Returns InvalidArgument on a malformed spec.
  static Status Set(const std::string& name, const std::string& spec);

  /// Disarms `name` (no-op when not armed).
  static void Clear(const std::string& name);

  /// Disarms everything and zeroes all hit counters.
  static void ClearAll();

  /// Parses `getenv(env_var)` as semicolon-separated name=spec pairs and
  /// arms each. Missing/empty variable is OK (no-op).
  static Status InstallFromEnv(const char* env_var = "RELVIEW_FAILPOINTS");

  /// Registers a hit at site `name` and returns the fault to inject (or
  /// kOff). A `crash` action exits the process here. `name` must be a
  /// literal or otherwise outlive the call.
  static FailpointHit Check(const char* name);

  /// Total hits observed at `name` since ClearAll (armed or not: counting
  /// starts at arming time; an unarmed site is not counted — the fast
  /// path never takes the lock).
  static uint64_t Hits(const std::string& name);

  /// Names of currently armed failpoints (for diagnostics / telemetry).
  static std::vector<std::string> Armed();
};

}  // namespace relview

#endif  // RELVIEW_UTIL_FAILPOINT_H_
