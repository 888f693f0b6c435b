// Trace record/replay — byte-deterministic capture of offered traffic plus
// the decisions taken on it (DESIGN.md §10).
//
// A recorded trace is the ground truth of one run: every arrival in the
// order the service processed it (virtual-time order on the twin, recorder
// order on the wall clock), each with its class, op, key, value size and
// the admission decision + shard route it received, plus the run's summary
// accounting (per-class and per-shard accepted/rejected/shed, lock-route
// counters, the batch-size histogram) and the seed provenance that
// generated the stream. Replaying the trace feeds the identical offered
// sequence back through either path:
//
//   * twin replay is byte-deterministic — SimKvService::replay() schedules
//     the records in recorded order, which reproduces the original engine
//     event sequence exactly (sim/engine.h executes by (time, insertion)
//     order, and the recorder appended in processing order), so the
//     measured and shard tables come back byte-identical;
//   * real-path replay is decision-checked — wall-clock latencies differ
//     run to run, but admission, shed and shard-route *accounting* must
//     match the recording (server/replay.h), which is what makes policy
//     A/Bs on the real service apples-to-apples.
//
// The file format is versioned, self-describing text (one record per line,
// all-integer fields; see write_trace) so traces diff cleanly, survive as
// CI artifacts and golden files, and reject mismatched readers loudly.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "platform/raw_spinlock.h"
#include "server/kv_service.h"

namespace asl::server {

// The three ways admission can go, in the order try_push_below reports
// them: admitted to a shard queue, deliberately shed at a class watermark,
// or hard-rejected by a full queue. Stable on-disk values.
enum class TraceDecision : std::uint8_t { kAdmit = 0, kShed = 1, kReject = 2 };

// One offered request, in processing order. `at` is the arrival instant
// relative to the run start (virtual ns on the twin, recorder-origin-
// relative wall ns on the real path); `value_size` is the byte length of
// the value a put carried (0 for gets); `shard` is where shard_for_key
// routed it — recorded even for bounced requests, since the bounce happened
// at that shard's queue.
struct TraceRecord {
  Nanos at = 0;
  std::uint32_t class_index = 0;
  bool is_put = false;
  std::uint64_t key = 0;
  std::uint32_t value_size = 0;
  TraceDecision decision = TraceDecision::kAdmit;
  std::uint32_t shard = 0;
};

// Byte length of the service's value representation of `key` ("v:<key>",
// ValueArena::format_value) — what a put's value_size records.
inline std::uint32_t kv_value_size(std::uint64_t key) {
  std::uint32_t digits = 1;
  while (key >= 10) {
    key /= 10;
    ++digits;
  }
  return digits + 2;  // "v:" prefix
}

// Summary accounting of the recorded run — the parity surface replay is
// checked against. Class and shard totals are derived from the records
// (they are redundant with the stream on purpose: a truncated or edited
// trace fails the cross-check), the route counters and batch histogram
// come from the service and describe *serving*, which the stream alone
// cannot reconstruct.
struct TraceClassTotals {
  std::string name;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;  // all bounces (shed included)
  std::uint64_t shed = 0;
};

struct TraceShardTotals {
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
};

// One bucket of the batch-size histogram: `count` lock acquisitions on
// `shard` carried a batch of exactly `size` requests. Summed over buckets,
// count == get_route_acquires + put_route_acquires (lock-free solo gets
// acquire nothing and are not batches).
struct TraceBatchBucket {
  std::uint32_t shard = 0;
  std::uint32_t size = 0;
  std::uint64_t count = 0;
};

struct TraceAccounting {
  std::vector<TraceClassTotals> classes;
  std::vector<TraceShardTotals> shards;
  LockRouteStats routes;
  std::vector<TraceBatchBucket> batches;  // sorted by (shard, size)
};

// Decision parity: same per-class and per-shard accepted/rejected/shed in
// `got` as in `want`. This is the real-path replay guarantee — it does NOT
// compare route counters or batch histograms, which depend on worker timing
// there (the twin replay asserts those separately, where they are exact).
// On mismatch returns false and, when `why` is non-null, names the first
// differing counter.
bool accounting_counts_match(const TraceAccounting& want,
                             const TraceAccounting& got, std::string* why);

// Provenance + shape of the recorded run — everything replay needs to
// rebuild a matching service, and everything a reader needs to interpret
// the stream without the recording code at hand.
struct TraceMeta {
  std::string scenario = "unnamed";  // registry name or free-form label
  std::string engine = "hash";
  Nanos horizon = 0;             // arrival window of the recorded run
  std::uint32_t num_shards = 1;  // shard field domain
  std::uint64_t twin_seed = 0;   // SimTwinConfig::seed (twin recordings)
  bool real_path = false;        // recorded on the wall clock?
  std::vector<std::string> class_names;  // class_index domain, config order
  // The LoadSpec seeds that generated the offered stream, in spec order —
  // the trace is self-sufficient for replay, but the seeds let a reader
  // regenerate the schedule from source and diff against the recording.
  struct SpecSeed {
    std::uint32_t class_index = 0;
    std::uint64_t seed = 0;
  };
  std::vector<SpecSeed> seeds;
};

// A whole recorded run. `version` guards the on-disk format: parse_trace
// rejects any file whose version differs from kVersion (no silent
// best-effort reads of future or ancient traces).
struct RecordedTrace {
  static constexpr std::uint32_t kVersion = 1;
  std::uint32_t version = kVersion;
  TraceMeta meta;
  std::vector<TraceRecord> records;  // processing order
  TraceAccounting accounting;

  std::uint64_t offered() const { return records.size(); }
};

// Collects one run's records. Attach to a service before traffic (KvService
// ::set_recorder / SimKvService::record_to); the hooks call on_arrival /
// on_batch, then the owner snapshots the result with finish(). Appends are
// spinlock-serialized: the twin's single-threaded engine never contends,
// real-path submitter threads serialize in wall-clock order (which is why
// real recordings are accounting-faithful, not byte-deterministic).
class TraceRecorder {
 public:
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // Wall-clock zero for real-path recording: arrival stamps are stored as
  // `at - origin`. Twin hooks pass virtual time, already run-relative, so
  // the default origin of 0 is correct there.
  void set_origin(Nanos origin_ns);

  void on_arrival(Nanos at, std::uint32_t class_index, bool is_put,
                  std::uint64_t key, TraceDecision decision,
                  std::uint32_t shard);
  void on_batch(std::uint32_t shard, std::uint32_t size);

  std::uint64_t recorded() const;

  // Snapshot into a RecordedTrace: meta from the caller, class/shard totals
  // derived from the records (meta.class_names and meta.num_shards size the
  // tally vectors), route counters from the service's own accounting.
  // Leaves the recorder empty, ready for another run.
  RecordedTrace finish(TraceMeta meta, const LockRouteStats& routes);

 private:
  mutable RawSpinLock lock_;
  Nanos origin_ = 0;
  std::vector<TraceRecord> records_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> batches_;
};

// Serialization. The format is line-oriented text, stable under kVersion:
// a version magic, named meta lines, seed/accounting lines, a `columns`
// schema line, exactly `records N` CSV record lines, and an `end` trailer
// (a missing trailer is how truncation is detected). All fields integer
// except the name tokens; writing the same trace twice is byte-identical.
void write_trace(const RecordedTrace& trace, std::ostream& out);
std::string trace_to_string(const RecordedTrace& trace);

// Strict parse: false + a one-line reason in `error` on version mismatch,
// truncation, malformed lines, out-of-domain fields, or totals that do not
// cross-check against the record stream. A parsed trace is safe to replay
// without further validation.
bool parse_trace(std::istream& in, RecordedTrace* out, std::string* error);

bool save_trace(const RecordedTrace& trace, const std::string& path,
                std::string* error);
bool load_trace(const std::string& path, RecordedTrace* out,
                std::string* error);

// A loaded, validated trace ready to feed either path. Thin by design:
// validation happened at open()/parse time, so replay code can assume a
// well-formed trace.
class TraceSource {
 public:
  TraceSource() = default;
  explicit TraceSource(RecordedTrace trace) : trace_(std::move(trace)) {}

  // Loads and validates `path`; false + reason on any parse failure.
  static bool open(const std::string& path, TraceSource* out,
                   std::string* error);

  const RecordedTrace& trace() const { return trace_; }
  std::uint64_t offered() const { return trace_.records.size(); }

 private:
  RecordedTrace trace_;
};

}  // namespace asl::server
