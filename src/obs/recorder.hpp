#pragma once

/// \file recorder.hpp
/// Flight recorder: a fixed-size lock-free ring buffer of recent structured
/// events, dumped as a JSON diagnostic snapshot when something goes wrong.
///
/// Long evaluations fail rarely and far from a debugger: an invariant check
/// trips after hours of replays, a non-finite potential surfaces mid-solve.
/// The metrics registry tells you *how much* happened in aggregate but not
/// *in what order* just before the failure. The recorder keeps the last
/// `kCapacity` events (phase transitions, budget demotions, plan-cache
/// evictions, invariant-check outcomes, ...) and writes them to disk as a
/// `treecode-flight-record/v2` JSON document on invariant failure,
/// non-finite detection, or explicit request.
///
/// Design constraints, in order:
///  - Recording must be safe from any thread at any time, including inside
///    evaluator hot paths that run under the TSan stress suite. The ring is
///    an obs::SeqRing (obs/seq_ring.hpp): records travel as atomic words
///    between seqlock stamps, so torn reads are detectable instead of
///    undefined. There are no locks and no allocation on the record path.
///  - Disabled (the default) must cost one relaxed atomic load and a
///    predicted branch, so the recorder can stay compiled into release
///    evaluators without showing up in benchmarks.
///  - Event labels are `const char*` and must point at storage that outlives
///    the recorder — in practice string literals or obs::span constants.
///    Dynamic strings are deliberately unsupported: copying them would need
///    allocation or a length cap, and every current producer has a static
///    name.
///
/// A slot being overwritten while a snapshot reader visits it yields a
/// mismatched begin/end stamp and the slot is skipped. Stamps are unique
/// sequence numbers, so a reader lapped mid-snapshot cannot false-match
/// either. Two writers N records apart on one slot (a stalled writer the
/// ring laps) cannot tear it: the later one drops its event instead
/// (obs/seq_ring.hpp).

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace treecode::obs::recorder {

/// What kind of event a slot holds. Serialized by name in snapshots.
enum class Category : std::uint8_t {
  kPhase = 0,      ///< a timed phase completed (label = span name, value = seconds)
  kBudget,         ///< error-budget demotions in an evaluation (value = count)
  kEviction,       ///< plan-cache eviction (value = plan bytes released)
  kInvariant,      ///< invariant check outcome (value = violation count)
  kNonFinite,      ///< non-finite potential/gradient detected (value = target index)
  kWarning,        ///< obs::warn was called (message itself lives in the warning sink)
  kAudit,          ///< audit engine event (value = tightness ratio or violation count)
  kCustom,         ///< anything else; meaning carried by the label
};

/// Human-readable name for a category ("phase", "budget", ...).
const char* category_name(Category c);

/// One recorded event, as read back out of the ring.
struct Event {
  std::uint64_t seq = 0;       ///< global sequence number (total order of records)
  std::int64_t ts_us = 0;      ///< microseconds since recorder start
  std::uint32_t tid = 0;       ///< obs::thread_index() of the recording thread
  Category category = Category::kCustom;
  const char* label = "";      ///< static string naming the event
  double value = 0.0;          ///< category-specific payload
};

/// Number of slots in the ring. Power of two so the slot index is a mask.
inline constexpr std::size_t kCapacity = 4096;

/// Enable event recording. Idempotent; resets the epoch used for `ts_us`
/// but keeps previously recorded events (they predate the new epoch and
/// keep their old timestamps).
void start();

/// Disable event recording. Events already in the ring remain readable.
void stop();

/// Whether record() currently stores events. One relaxed load.
bool enabled();

/// Discard all recorded events and the dump-path / dump-count state.
/// Not safe concurrently with record(); intended for test setup.
void reset();

/// Record one event. Lock-free, allocation-free, safe from any thread.
/// No-op (one relaxed load + branch) while the recorder is disabled.
/// `label` must outlive the recorder (string literal / obs::span constant).
void record(Category category, const char* label, double value) noexcept;

/// Snapshot the ring: all readable events, oldest first (sorted by seq).
/// Slots mid-write or torn are skipped.
std::vector<Event> events();

/// Total events ever recorded (including ones the ring has overwritten).
std::uint64_t recorded_count();

/// Snapshot as a `treecode-flight-record/v2` JSON document:
/// {schema, reason, provenance, recorded, dropped,
///  events:[{seq,ts_us,tid,category,label,value}]}. v2 added the bench
/// reports' provenance block (git SHA, compiler, host, UTC timestamp).
Json to_json(const std::string& reason);

/// Where trigger() writes snapshots. Empty (default) disables dumping;
/// trigger() still records a kCustom "recorder.trigger" event so the cause
/// is visible in later snapshots.
void set_dump_path(std::string path);

/// Dump a snapshot to `path` immediately. Returns false (after recording a
/// warning) if the file cannot be written. Usable whether or not enabled().
bool dump(const std::string& path, const std::string& reason);

/// Something went wrong: dump a snapshot to the configured dump path.
/// Called on invariant failure and non-finite detection; callers that are
/// about to throw call this first so the artifact survives the unwind.
/// No-op beyond an event record when no dump path is configured.
void trigger(const std::string& reason);

/// How many times trigger() has dumped since the last reset().
std::uint64_t trigger_count();

}  // namespace treecode::obs::recorder
