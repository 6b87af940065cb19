// The benchmark's three deployments, built and stepped only through the
// simulator's public API (README.md in this directory says why each exists).
#ifndef TOCKBENCH_WORKLOADS_H_
#define TOCKBENCH_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "board/fleet.h"
#include "board/sim_board.h"
#include "kernel/telemetry.h"
#include "probe.h"
#include "spans.h"

namespace tockbench {

// The model clock every board runs at (hw/costs.h: a nominal 16 MHz core).
inline constexpr double kModelClockHz = 16e6;

enum class Workload { kSyscallStorm, kBeaconFleet, kOtaLossy };

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload workload);

struct Params {
  Workload workload = Workload::kSyscallStorm;
  uint64_t seed = 0;
  size_t boards = 1;
  // Stepping threads of the parallel run (--trace 1, run A). Timed runs and
  // the traced run step on one thread: README.md gives the measurements.
  unsigned threads = 1;
  // syscall_storm / beacon_fleet: the measured simulated span. ota_lossy runs
  // until OtaGateway::Done() instead.
  uint64_t span_cycles = 0;
  // Every run steps its span in chunks of this many cycles, timed one by one
  // (ota_lossy checks Done() between chunks). Traced and untraced runs chunk
  // alike, so they stop the simulation at the same points.
  uint64_t chunk_cycles = 0;
  uint64_t budget_cycles = 0;  // ota_lossy: give up after this many cycles
  bool telemetry = false;      // live telemetry region drained by a tap thread
  std::string out_dir;         // run artifacts (telemetry region, span trace)
};

// `tiny` shrinks every workload for the smoke test.
Params MakeParams(Workload workload, uint64_t seed, bool tiny);

// One built deployment. Members are destroyed boards first, then the
// telemetry region they publish into, then the fleet owning their medium.
struct Deployment {
  std::unique_ptr<tock::Fleet> fleet;
  std::unique_ptr<tock::TelemetryRegion> telemetry;
  std::vector<std::unique_ptr<tock::SimBoard>> boards;
};

// Builds images, constructs and boots every board, aligns clocks and (OTA)
// starts the push. Spans go to `tracer` when non-null. Returns null and sets
// `*error` on failure.
std::unique_ptr<Deployment> Setup(const Params& params, unsigned threads, Tracer* tracer,
                                  std::string* error);

// Host-side counters of a traced fleet run, from the benchmark's own spans.
struct FleetTrace {
  std::vector<uint32_t> epoch_ns;
  std::vector<uint32_t> step_ns;
  uint64_t slowest_step_ns = 0;  // sum over epochs of the slowest board step
};

// Thread CPU time of a span's chunks and of the host probe run after each.
struct ChunkTimes {
  uint64_t span_ns = 0;
  double probe_s = 0;
  size_t probes = 0;
};

// Steps the measured span, chunk by chunk: untraced through the program's own
// Fleet::Run / SimBoard::Run, or traced (one thread) through the calls
// Fleet::StepBoard makes, each wrapped in a span. With a `probe`, runs it
// after every chunk and adds both times to `times`. Returns the simulated
// cycles stepped on the shared timeline.
uint64_t RunSpan(Deployment& dep, const Params& params, Tracer* tracer, FleetTrace* trace,
                 HostProbe* probe = nullptr, ChunkTimes* times = nullptr);

// The simulated state of one board that a host-only change must not move:
// instructions, cycles, every simulated kernel counter (syscalls by class,
// upcalls, context switches, ...), radio and link-fault counters, process
// states and the OTA capsule ledgers. Host-only stats are excluded.
std::vector<uint64_t> BoardFingerprint(tock::SimBoard& board);
uint64_t Digest(const std::vector<std::vector<uint64_t>>& fingerprints);

// Workload invariants of board `index` after a run; sets `*why` on failure.
bool BoardHealthy(const Params& params, size_t index, tock::SimBoard& board, std::string* why);

// Drains the telemetry region every 20 ms on its own thread, as tools/tap
// does, timing each drain pass.
class TapThread {
 public:
  explicit TapThread(tock::TelemetryRegion& region);
  ~TapThread();
  TapThread(const TapThread&) = delete;
  TapThread& operator=(const TapThread&) = delete;

  // Stops the reader after one last drain and joins it.
  void Stop();

  const std::vector<uint32_t>& drain_ns() const { return drain_ns_; }
  uint64_t lost();  // records the reader never saw (call after Stop)

 private:
  void DrainAll();

  tock::TelemetryTap tap_;
  std::vector<uint32_t> drain_ns_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace tockbench

#endif  // TOCKBENCH_WORKLOADS_H_
