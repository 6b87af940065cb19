// Host hot-path throughput: the two interpreter engines. Both legs share one
// binary and one two-app workload, differing only in
// KernelConfig::enable_threaded_dispatch:
//
//   decode-cache the Cpu::Step reference engine over the predecoded instruction
//                cache (vm/decode.h), one kernel loop iteration per instruction
//   threaded+sb  batch engine: computed-goto dispatch (vm/cpu.cc RunBatch),
//                superblock chaining (straight-line runs executed without
//                per-insn budget/lookup checks, chained across branches) and
//                block-boundary cycle accounting in the kernel
//
// The bench proves both halves of the hot-path claim:
//
//   * identical simulation: both legs must retire the same instruction count,
//     execute the same syscall mix, and end on the same cycle — any divergence
//     is a hard failure, not a slow result;
//   * faster host: the threaded+superblocks leg must be at least 2x the
//     decode-cache leg in simulated instructions per wall-clock second (the
//     dispatch-overhead payoff; see DESIGN.md "Interpreter v2").
//
// The workload pairs a compute-bound app (tight ALU/branch loop, preempted by
// SysTick) with a syscall-heavy app (command + yield-wait-for against the async
// temperature driver, exercising driver dispatch, the upcall queue, and the
// virtual-alarm mux every iteration).
#include <chrono>
#include <cstdio>

#include "bench_json.h"
#include "board/sim_board.h"

namespace {

// Compute-bound: a 10-instruction arithmetic loop that never traps. The decode
// cache converts every iteration after the first into pure table-driven execution,
// and the superblock builder turns the loop body into one chained block.
const char* kComputeApp = R"(
_start:
    li s0, 0
    li s1, 1
    li s2, 0x1234
loop:
    add s0, s0, s1
    xor s3, s0, s2
    slli s4, s3, 3
    srli s5, s3, 5
    or s6, s4, s5
    sub s7, s6, s0
    sltu s8, s0, s7
    andi s9, s7, 255
    add s2, s2, s8
    j loop
)";

// Syscall-heavy: sample the async temperature driver forever with the two-trap
// command + yield-wait-for sequence. Each iteration crosses the syscall boundary
// twice, queues and delivers one upcall, and arms/fires the virtual alarm backing
// the simulated sensor.
const char* kSyscallApp = R"(
_start:
loop:
    # command(temp, 1 = sample)
    li a0, 0x60000
    li a1, 1
    li a2, 0
    li a3, 0
    li a4, 2
    ecall
    # yield-wait-for(temp, completion sub 0)
    li a0, 2
    li a1, 0x60000
    li a2, 0
    li a4, 0
    ecall
    mv s2, a1
    j loop
)";

constexpr uint64_t kSimCycles = 30'000'000;

struct EngineLeg {
  const char* name;  // human label
  bool threaded;
};

constexpr EngineLeg kLegs[] = {
    {"decode_cache", false},
    {"threaded_superblocks", true},
};
constexpr size_t kNumLegs = sizeof(kLegs) / sizeof(kLegs[0]);

struct RunResult {
  bool ok = false;
  uint64_t instructions = 0;
  uint64_t syscalls = 0;
  uint64_t upcalls = 0;
  uint64_t end_cycles = 0;
  uint64_t cache_fills = 0;
  uint64_t blocks_built = 0;
  uint64_t chain_hits = 0;
  double wall_ns = 0.0;
};

RunResult RunWorkload(const EngineLeg& leg) {
  tock::BoardConfig config;
  config.kernel.enable_threaded_dispatch = leg.threaded;
  tock::SimBoard board(config);

  tock::AppSpec compute;
  compute.name = "compute";
  compute.source = kComputeApp;
  compute.include_runtime = false;
  tock::AppSpec syscalls;
  syscalls.name = "syscalls";
  syscalls.source = kSyscallApp;
  syscalls.include_runtime = false;
  if (board.installer().Install(compute) == 0 ||
      board.installer().Install(syscalls) == 0 || board.Boot() != 2) {
    std::fprintf(stderr, "setup failed: %s\n", board.installer().error().c_str());
    return {};
  }

  auto start = std::chrono::steady_clock::now();
  board.Run(kSimCycles);
  auto stop = std::chrono::steady_clock::now();

  RunResult r;
  r.ok = true;
  r.instructions = board.kernel().instructions_retired();
  r.syscalls = board.kernel().stats().SyscallsTotal();
  r.upcalls = board.kernel().stats().upcalls_delivered;
  r.end_cycles = board.mcu().CyclesNow();
  r.blocks_built = board.kernel().stats().vm_blocks_built;
  r.chain_hits = board.kernel().stats().vm_block_chain_hits;
  for (size_t i = 0; i < tock::Kernel::kMaxProcesses; ++i) {
    if (tock::Process* p = board.kernel().process(i)) {
      r.cache_fills += p->decode_cache.fills();
    }
  }
  r.wall_ns = std::chrono::duration<double, std::nano>(stop - start).count();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  tock::bench::BenchReporter reporter("tab_hotpath_throughput", &argc, argv);

  std::printf("==== Hot-path throughput: interpreter engines, two-app workload ====\n\n");

  // Slowest leg first so no leg inherits a warm host (page cache, branch
  // predictors) advantage from ordering alone; each leg builds its own board.
  RunResult results[kNumLegs];
  for (size_t i = 0; i < kNumLegs; ++i) {
    results[i] = RunWorkload(kLegs[i]);
    if (!results[i].ok) {
      return 1;
    }
  }

  // Bit-identical simulation across both legs is the contract that lets the
  // golden traces stand no matter which engine a board selects.
  const RunResult& ref = results[0];
  for (size_t i = 1; i < kNumLegs; ++i) {
    const RunResult& r = results[i];
    if (r.instructions != ref.instructions || r.syscalls != ref.syscalls ||
        r.upcalls != ref.upcalls || r.end_cycles != ref.end_cycles) {
      std::fprintf(stderr,
                   "FAIL: engine leg '%s' diverged from '%s'\n"
                   "  insns   %llu vs %llu\n  syscalls %llu vs %llu\n"
                   "  upcalls %llu vs %llu\n  cycles  %llu vs %llu\n",
                   kLegs[i].name, kLegs[0].name, (unsigned long long)r.instructions,
                   (unsigned long long)ref.instructions, (unsigned long long)r.syscalls,
                   (unsigned long long)ref.syscalls, (unsigned long long)r.upcalls,
                   (unsigned long long)ref.upcalls, (unsigned long long)r.end_cycles,
                   (unsigned long long)ref.end_cycles);
      return 1;
    }
  }

  double insn_per_sec[kNumLegs];
  for (size_t i = 0; i < kNumLegs; ++i) {
    insn_per_sec[i] = static_cast<double>(results[i].instructions) /
                      (results[i].wall_ns * 1e-9);
  }
  const RunResult& best = results[kNumLegs - 1];

  std::printf("  %-22s %14s %10s %12s %12s\n", "engine", "sim Minsn/s", "wall ms",
              "blocks", "chain hits");
  std::printf("  %-22s %14s %10s %12s %12s\n", "------", "-----------", "-------",
              "------", "----------");
  for (size_t i = 0; i < kNumLegs; ++i) {
    std::printf("  %-22s %14.2f %10.1f %12llu %12llu\n", kLegs[i].name,
                insn_per_sec[i] * 1e-6, results[i].wall_ns * 1e-6,
                (unsigned long long)results[i].blocks_built,
                (unsigned long long)results[i].chain_hits);
  }
  std::printf("\n  sim instructions %llu  syscalls %llu  upcalls %llu  end cycle %llu"
              "  (identical on both legs)\n",
              (unsigned long long)ref.instructions, (unsigned long long)ref.syscalls,
              (unsigned long long)ref.upcalls, (unsigned long long)ref.end_cycles);

  double speedup_sb = insn_per_sec[1] / insn_per_sec[0];
  std::printf("\n  speedup threaded+sb vs decode-cache:     %.2fx  (gate: >= 2x)\n",
              speedup_sb);

  // Key names predate the two-leg bench; kept so longitudinal BENCH_results.json
  // comparisons still line up (cache_on == the decode-cache Step leg).
  reporter.Record("sim_insn_per_sec/cache_on", insn_per_sec[0], "insn/s");
  reporter.Record("sim_insn_per_sec/threaded_superblocks", insn_per_sec[1], "insn/s");
  reporter.Record("speedup_superblocks_vs_cache", speedup_sb, "x");
  reporter.Record("decode_cache_fills", static_cast<double>(best.cache_fills), "fills");
  reporter.Record("vm_blocks_built", static_cast<double>(best.blocks_built), "blocks");
  reporter.Record("vm_block_chain_hits", static_cast<double>(best.chain_hits), "hits");

  bool gate_ok = speedup_sb >= 2.0;
  if (!gate_ok) {
    std::fprintf(stderr,
                 "FAIL: threaded+superblocks is %.2fx the decode-cache leg "
                 "(gate: >= 2x)\n",
                 speedup_sb);
  }

  std::printf("\nshape: identical instruction/syscall/cycle counts prove the engine is\n"
              "invisible to the simulation; the wall-clock gap is the dispatch-\n"
              "overhead payoff (thread dispatch + chain superblocks over the cache).\n");
  return gate_ok ? 0 : 1;
}
