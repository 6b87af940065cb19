// The host-speed probe: a fixed piece of host work that shares no code with
// the simulator, run between the chunks of every timed span to measure how
// fast the host runs the benchmark's thread at that moment.
//
// A shared host lends each vCPU's core to other tenants, and while they run
// the same thread retires fewer instructions per second: CPU time, not only
// wall time, stretches by up to 2x for seconds at a time. The probe is a tiny
// register-machine interpreter (switch dispatch over a 16-op program, loads
// and stores into 256 KiB), close to the simulator's own VM loop, so it
// stretches with it. README.md gives the measurements.
#ifndef TOCKBENCH_PROBE_H_
#define TOCKBENCH_PROBE_H_

#include <cstdint>
#include <vector>

namespace tockbench {

class HostProbe {
 public:
  // The probe's thread CPU time on an undisturbed 4-vCPU Xeon host. Timed
  // runs rescale their figures to a host on which one probe takes this long.
  static constexpr double kNominalS = 400e-6;

  HostProbe();

  // Runs the fixed work once and returns its thread CPU seconds.
  double Run();

  // The last run's result, printed so that the work cannot be optimised away.
  uint64_t checksum() const { return checksum_; }

 private:
  std::vector<uint32_t> code_;
  std::vector<uint32_t> mem_;
  uint64_t checksum_ = 0;
};

}  // namespace tockbench

#endif  // TOCKBENCH_PROBE_H_
