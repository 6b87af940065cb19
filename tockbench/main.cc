// tockbench: the repository benchmark. One invocation runs one workload and
// prints, as its last stdout line, one JSON object with `correct`,
// `attempted`, `failed` and `metrics` (end-to-end metrics with --trace 0,
// per-layer metrics with --trace 1). README.md in this directory describes the
// workloads and metrics; run.py builds this binary and invokes it.
//
//   tockbench --workload beacon_fleet --seed 1 --seconds 30 --trace 0
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "spans.h"
#include "workloads.h"

#ifndef TOCKBENCH_BUILD_TYPE
#define TOCKBENCH_BUILD_TYPE "unknown"
#endif
#ifndef TOCKBENCH_SANITIZE
#define TOCKBENCH_SANITIZE ""
#endif
#ifndef TOCKBENCH_SWITCHES
#define TOCKBENCH_SWITCHES ""
#endif

namespace tockbench {
namespace {

using Fingerprints = std::vector<std::vector<uint64_t>>;

// Every timed run measures at least this many deployments after its warm-up
// one, so each reported figure is a median.
constexpr size_t kMinReps = 3;
// Set-up takes milliseconds, so each timed deployment times this many
// set-ups: its own and throwaway ones, for a steadier `setup_s` median.
constexpr size_t kSetupsPerDeployment = 10;
// Spans kept verbatim for the trace file; totals cover every span.
constexpr size_t kKeptSpans = 50'000;

struct Options {
  Workload workload = Workload::kSyscallStorm;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool perturb = false;  // flip one fingerprint word: the check must catch it
  std::string out_dir = ".bench_build/tockbench-out";
  std::string git_sha = "unknown";
};

bool ParseOptions(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--perturb") {
      opts->perturb = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      if (!ParseWorkload(value, &opts->workload)) return false;
    } else if (key == "--seed") {
      opts->seed = std::strtoull(value.c_str(), &end, 0);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      opts->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || opts->seconds < 0) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      opts->trace = value == "1";
    } else if (key == "--size") {
      if (value != "full" && value != "tiny") return false;
      opts->tiny = value == "tiny";
    } else if (key == "--out") {
      opts->out_dir = value;
    } else if (key == "--git-sha") {
      opts->git_sha = value;
    } else {
      return false;
    }
  }
  return true;
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Peak resident set of this process image. VmHWM rather than getrusage's
// ru_maxrss, which keeps the launching process's peak across execve.
double PeakRssMib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

const char* Bool(bool b) { return b ? "true" : "false"; }

// Runtime engine knobs at their defaults, printed only where the program
// still has them.
template <typename K, typename B, typename F>
std::string Knobs(const K& k, const B& b, const F& f) {
  std::string s;
  auto add = [&s](const char* name, std::string value) {
    s += std::string(s.empty() ? "" : ",") + "\"" + name + "\":" + value;
  };
  if constexpr (requires { k.enable_decode_cache; }) {
    add("decode_cache", Bool(k.enable_decode_cache));
  }
  if constexpr (requires { k.enable_threaded_dispatch; }) {
    add("threaded_dispatch", Bool(k.enable_threaded_dispatch));
  }
  if constexpr (requires { k.enable_superblocks; }) {
    add("superblocks", Bool(k.enable_superblocks));
  }
  if constexpr (requires { b.paged_mem; }) add("paged_mem", Bool(b.paged_mem));
  if constexpr (requires { f.steal; }) add("steal", Bool(f.steal));
  if constexpr (requires { f.idle_skip; }) add("idle_skip", Bool(f.idle_skip));
  add("slice", std::to_string(f.slice));
  return "{" + s + "}";
}

bool DebugOrSanitized() {
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  const std::string sanitize = TOCKBENCH_SANITIZE;
  return std::string(TOCKBENCH_BUILD_TYPE) == "Debug" ||
         !(sanitize.empty() || sanitize == "OFF" || sanitize == "0");
#endif
}

void PrintHost(const Options& opts) {
  std::printf(
      "# host {\"nproc\":%u,\"compiler\":\"%s\",\"build_type\":\"%s\",\"git_sha\":\"%s\","
      "\"switches\":\"%s\",\"knobs\":%s}\n",
      std::thread::hardware_concurrency(), "gcc " __VERSION__, TOCKBENCH_BUILD_TYPE,
      opts.git_sha.c_str(), TOCKBENCH_SWITCHES,
      Knobs(tock::KernelConfig{}, tock::BoardConfig{}, tock::FleetConfig{}).c_str());
}

// Operations attempted and failed. A failed fingerprint comparison also makes
// the result incorrect: the simulator's determinism is what every other check
// stands on. Other failed operations are program outcomes, counted in `failed`.
struct Ledger {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  void Op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::printf("# FAILED %s\n", what.c_str());
    }
  }
};

// Compares every board's fingerprint with the reference over any number of
// runs, then records one operation per board, so that `attempted` and
// `failed` do not depend on how many runs fit in the time.
class FingerprintCheck {
 public:
  explicit FingerprintCheck(const char* what) : what_(what) {}

  void Compare(const Fingerprints& got, const Fingerprints& want) {
    mismatches_.resize(want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      mismatches_[i] += i < got.size() && got[i] == want[i] ? 0 : 1;
    }
    ++runs_;
  }

  void Record(size_t boards, Ledger* ledger) {
    mismatches_.resize(boards);
    for (size_t i = 0; i < boards; ++i) {
      const bool same = mismatches_[i] == 0;
      ledger->correct = ledger->correct && same;
      ledger->Op(same, std::string(what_) + ": board " + std::to_string(i) +
                           " fingerprint differs in " + std::to_string(mismatches_[i]) + " of " +
                           std::to_string(runs_) + " runs");
    }
  }

 private:
  const char* what_;
  std::vector<uint64_t> mismatches_;
  size_t runs_ = 0;
};

Fingerprints TakeFingerprints(Deployment& dep) {
  Fingerprints f;
  for (auto& board : dep.boards) f.push_back(BoardFingerprint(*board));
  return f;
}

// Board invariants and, on ota_lossy, convergence and the gateway ledger.
// Returns the ledger overcount (gateway `converged` minus subscribers that
// actually converged).
int64_t CheckOutcome(const Params& params, Deployment& dep, Ledger* ledger) {
  for (size_t i = 0; i < dep.boards.size(); ++i) {
    std::string why;
    const bool ok = BoardHealthy(params, i, *dep.boards[i], &why);
    ledger->Op(ok, "board " + std::to_string(i) + ": " + why);
  }
  if (params.workload != Workload::kOtaLossy) {
    return 0;
  }
  int64_t converged = 0;
  for (size_t i = 1; i < dep.boards.size(); ++i) {
    tock::SimBoard& board = *dep.boards[i];
    bool runs_update = false;
    for (size_t p = 0; p < tock::Kernel::kMaxProcesses; ++p) {
      const tock::Process* proc = board.kernel().process(p);
      runs_update = runs_update || (proc->IsAlive() && proc->name == "update");
    }
    const bool ok = board.ota_subscriber().Converged() && runs_update;
    converged += ok ? 1 : 0;
    ledger->Op(ok, "subscriber " + std::to_string(i) + " does not run the update");
  }
  const tock::OtaGatewayStats& gw = dep.boards.front()->ota_gateway().stats();
  const int64_t subscribers = static_cast<int64_t>(dep.boards.size()) - 1;
  const int64_t overcount = static_cast<int64_t>(gw.converged) - converged;
  ledger->Op(overcount == 0 && static_cast<int64_t>(gw.failed) == subscribers - converged,
             "gateway ledger reports " + std::to_string(gw.converged) + " converged + " +
                 std::to_string(gw.failed) + " failed; subscribers report " +
                 std::to_string(converged) + " of " + std::to_string(subscribers));
  return overcount;
}

// Simulated totals over every board.
struct Totals {
  uint64_t insns = 0;
  uint64_t board_cycles = 0;
  tock::KernelStats stats;
  uint64_t frames_tx = 0, frames_rx = 0, overruns = 0, link_faults = 0;
  uint64_t resident_bytes = 0;
};

Totals Sum(Deployment& dep) {
  Totals t;
  for (auto& board : dep.boards) {
    t.insns += board->kernel().instructions_retired();
    t.board_cycles += board->mcu().CyclesNow();
    t.stats.Accumulate(board->kernel().stats());
    t.frames_tx += board->radio_hw().packets_sent();
    t.frames_rx += board->radio_hw().packets_received();
    t.overruns += board->radio_hw().rx_overruns();
    const tock::LinkFaultCounters f = board->radio_hw().fault_counters();
    t.link_faults += f.dropped + f.duplicated + f.reordered + f.corrupted;
    t.resident_bytes += board->mcu().bus().resident_bytes();
  }
  return t;
}

// One deployment: set up, run the span, fingerprint. Set-up and the span run
// on the calling thread. A traced or parallel run times the span in wall time.
// A timed run times both in the thread's CPU time and runs the host probe
// once after set-up and after every chunk of the span; `host_speed` is the
// probe's nominal time over its mean measured time.
struct Rep {
  double setup_cpu_s = 0;
  double run_cpu_s = 0;
  double host_speed = 1;
  double run_wall_s = 0;
  uint64_t cycles = 0;  // simulated cycles stepped on the shared timeline
  Totals before, after;
  Fingerprints fingerprints;
  std::unique_ptr<Deployment> dep;
  std::unique_ptr<TapThread> tap;
};

bool RunRep(const Params& params, unsigned threads, Tracer* tracer, FleetTrace* trace,
            HostProbe* probe, Rep* rep, Ledger* ledger) {
  std::string error;
  const uint64_t c0 = ThreadCpuNs();
  rep->dep = Setup(params, threads, tracer, &error);
  rep->setup_cpu_s = Seconds(ThreadCpuNs() - c0);
  ChunkTimes times;
  if (probe != nullptr) {
    times.probe_s = probe->Run();
    times.probes = 1;
  }
  if (!rep->dep) {
    ledger->correct = false;
    ledger->Op(false, "setup: " + error);
    return false;
  }
  if (rep->dep->telemetry) {
    rep->tap = std::make_unique<TapThread>(*rep->dep->telemetry);
  }
  rep->before = Sum(*rep->dep);
  const uint64_t t1 = NowNs();
  rep->cycles = RunSpan(*rep->dep, params, tracer, trace, probe, &times);
  rep->run_wall_s = Seconds(NowNs() - t1);
  rep->run_cpu_s = Seconds(times.span_ns);
  if (times.probes > 0) {
    rep->host_speed = HostProbe::kNominalS * static_cast<double>(times.probes) / times.probe_s;
  }
  if (rep->tap) {
    rep->tap->Stop();
  }
  rep->after = Sum(*rep->dep);
  rep->fingerprints = TakeFingerprints(*rep->dep);
  return true;
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

void Report(const Options& opts, const Params& params, const std::vector<Metric>& metrics,
            const Ledger& ledger, uint64_t digest) {
  std::printf("# fingerprint %s seed %" PRIu64 " %016" PRIx64 "\n", WorkloadName(params.workload),
              opts.seed, digest);
  for (const Metric& m : metrics) {
    std::printf("# %-32s %.6g %s\n", m.name, m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              Bool(ledger.correct), ledger.attempted, ledger.failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name, metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

// True while another step of `last_ns` still fits in the run's `seconds`.
bool Fits(uint64_t start_ns, uint64_t last_ns, double seconds) {
  return Seconds(NowNs() - start_ns + last_ns) <= seconds;
}

// --trace 0: repeated untraced deployments stepped on one host thread. With
// several stepping threads, every epoch barrier waits for the most delayed
// thread, and on a shared host that multiplies run-to-run noise (README.md).
//
// The first deployment is a warm-up for the process (allocator, code pages);
// it is the one whose outcome is checked and it sets the reference
// fingerprint, but it is left out of the timings. Every later deployment must
// match its fingerprint, and so its outcome, bit for bit.
//
// Each deployment's set-up and span CPU times are multiplied by its host
// speed, which rescales them to a host on which the probe takes its nominal
// time; every timed figure is the median of these over the deployments.
int RunTimed(const Options& opts, const Params& params) {
  Ledger ledger;
  FingerprintCheck repeats("repeat vs first deployment");
  HostProbe probe;
  std::vector<double> setup_s, run_s, mips, rtf, run_cpu_s, host_speed;
  Fingerprints reference;
  double converge_sim_s = 0;
  const uint64_t start = NowNs();
  uint64_t last_ns = 0;
  for (size_t n = 0; n <= kMinReps || Fits(start, last_ns, opts.seconds); ++n) {
    const uint64_t rep_start = NowNs();
    Rep rep;
    if (!RunRep(params, 1, nullptr, nullptr, &probe, &rep, &ledger)) {
      break;
    }
    std::printf("# deployment %zu: setup %.6f s, run %.6f s thread CPU; host speed %.4f\n", n,
                rep.setup_cpu_s, rep.run_cpu_s, rep.host_speed);
    last_ns = NowNs() - rep_start;
    if (n == 0) {
      CheckOutcome(params, *rep.dep, &ledger);
      reference = rep.fingerprints;
      converge_sim_s = static_cast<double>(rep.cycles) / kModelClockHz;
      continue;
    }
    if (opts.perturb) rep.fingerprints.front().front() ^= 1;
    repeats.Compare(rep.fingerprints, reference);
    const double run = rep.run_cpu_s * rep.host_speed;
    setup_s.push_back(rep.setup_cpu_s * rep.host_speed);
    run_s.push_back(run);
    mips.push_back(Ratio(static_cast<double>(rep.after.insns - rep.before.insns) / 1e6, run));
    rtf.push_back(Ratio(static_cast<double>(rep.after.board_cycles - rep.before.board_cycles) /
                            kModelClockHz,
                        run));
    run_cpu_s.push_back(rep.run_cpu_s);
    host_speed.push_back(rep.host_speed);
    rep.tap.reset();
    rep.dep.reset();  // frees the telemetry region the next set-up creates
    for (size_t k = 1; k < kSetupsPerDeployment; ++k) {
      std::string error;
      const uint64_t c0 = ThreadCpuNs();
      const std::unique_ptr<Deployment> dep = Setup(params, 1, nullptr, &error);
      const double cpu_s = Seconds(ThreadCpuNs() - c0);
      if (!dep) {
        ledger.correct = false;  // the same set-up succeeded moments before
        std::printf("# throwaway set-up failed: %s\n", error.c_str());
        break;
      }
      setup_s.push_back(cpu_s * rep.host_speed);
    }
    last_ns = NowNs() - rep_start;
  }
  repeats.Record(reference.size(), &ledger);
  std::printf("# %s: %zu deployments; medians: run %.6f s thread CPU, host speed %.4f "
              "(probe checksum %016" PRIx64 ")\n",
              WorkloadName(params.workload), run_s.size(), Median(run_cpu_s), Median(host_speed),
              probe.checksum());
  std::printf("# fail_ratio %.6g (%" PRIu64 "/%" PRIu64 ")\n",
              Ratio(static_cast<double>(ledger.failed), static_cast<double>(ledger.attempted)),
              ledger.failed, ledger.attempted);
  if (params.workload == Workload::kOtaLossy) {
    std::printf("# converge_sim_s %.6g s\n", converge_sim_s);
  }
  Report(opts, params,
         {{"setup_s", Median(setup_s), "s"},
          {"run_s", Median(run_s), "s"},
          {"sim_mips", Median(mips), "M/s"},
          {"realtime_factor", Median(rtf), "x"},
          {"peak_rss_mib", PeakRssMib(), "MiB"}},
         ledger, reference.empty() ? 0 : Digest(reference));
  return 0;
}

// --trace 1: per round, an untraced run on the parallel thread count (A), an
// untraced one-thread run (B, stepped as the timed runs step, and the
// tracing-overhead base) and a traced one-thread run (C). All three must end
// on the same fingerprint. Their spans are timed in wall time, without probes.
int RunTraced(const Options& opts, const Params& params) {
  Ledger ledger;
  FingerprintCheck repeats("repeat vs first deployment");
  FingerprintCheck one_thread("1 vs N stepping threads");
  FingerprintCheck traced("traced vs untraced run");
  Tracer tracer(kKeptSpans);
  FleetTrace trace;
  const bool fleet = params.workload != Workload::kSyscallStorm;
  double run_a_s = 0, run_b_s = 0, run_c_s = 0;
  uint64_t syscalls_c = 0, insns_c = 0, idle_skips_c = 0;
  Totals counts;  // simulated counts of the first A run
  uint64_t telemetry_lost = 0, telemetry_emitted = 0;
  std::vector<uint32_t> drain_ns;
  int64_t overcount = 0;
  double converge_sim_s = 0;
  uint64_t ota_sent = 0, ota_retransmits = 0;
  Fingerprints reference;
  size_t rounds = 0;
  const uint64_t start = NowNs();
  uint64_t last_ns = 0;
  do {
    const uint64_t round_start = NowNs();
    Rep a;
    if (!RunRep(params, params.threads, nullptr, nullptr, nullptr, &a, &ledger)) break;
    if (rounds == 0) {
      overcount = CheckOutcome(params, *a.dep, &ledger);
      reference = a.fingerprints;
      counts = a.after;
      converge_sim_s = static_cast<double>(a.cycles) / kModelClockHz;
      const tock::OtaGatewayStats& gw = a.dep->boards.front()->ota_gateway().stats();
      ota_sent = gw.frames_sent;
      ota_retransmits = gw.retransmits;
    } else {
      repeats.Compare(a.fingerprints, reference);
    }
    if (a.tap) {
      telemetry_lost += a.tap->lost();
      telemetry_emitted += a.after.stats.telemetry_events_emitted;
      drain_ns.insert(drain_ns.end(), a.tap->drain_ns().begin(), a.tap->drain_ns().end());
    }
    run_a_s += a.run_wall_s;
    a = Rep{};

    if (params.threads > 1) {
      Rep b;
      if (!RunRep(params, 1, nullptr, nullptr, nullptr, &b, &ledger)) break;
      one_thread.Compare(b.fingerprints, reference);
      run_b_s += b.run_wall_s;
    } else {
      run_b_s = run_a_s;
    }

    Rep c;
    if (!RunRep(params, 1, &tracer, &trace, nullptr, &c, &ledger)) break;
    if (opts.perturb) c.fingerprints.front().front() ^= 1;
    traced.Compare(c.fingerprints, reference);
    run_c_s += c.run_wall_s;
    syscalls_c += c.after.stats.SyscallsTotal() - c.before.stats.SyscallsTotal();
    insns_c += c.after.insns - c.before.insns;
    idle_skips_c += c.after.stats.fleet_idle_skips - c.before.stats.fleet_idle_skips;
    ++rounds;
    last_ns = NowNs() - round_start;
  } while (Fits(start, last_ns, opts.seconds));
  repeats.Record(reference.size(), &ledger);
  if (params.threads > 1) one_thread.Record(reference.size(), &ledger);
  traced.Record(reference.size(), &ledger);

  const double r = rounds == 0 ? 1.0 : static_cast<double>(rounds);
  auto ms = [&](SpanName n) { return static_cast<double>(tracer.total_ns(n)) / 1e6 / r; };
  auto us = [&](SpanName n) { return static_cast<double>(tracer.total_ns(n)) / 1e3 / r; };
  const double main_loop_ns = static_cast<double>(tracer.total_ns(SpanName::kMainLoop));
  const double step_ns = static_cast<double>(tracer.total_ns(SpanName::kStep));
  const double covered_ns = static_cast<double>(
      tracer.total_ns(fleet ? SpanName::kEpoch : SpanName::kMainLoop));
  const double threads = static_cast<double>(params.threads);

  // Where the traced run's wall time went: epochs (or the one MainLoop call)
  // against the run span, and the calls inside each board step.
  std::printf("# traced run: %.3f s wall per round, %.1f%% in %s spans\n", run_c_s / r,
              100.0 * Ratio(covered_ns, 1e9 * run_c_s), fleet ? "epoch" : "main_loop");
  double calls_ns = 0;
  for (SpanName n : {SpanName::kPumpInbox, SpanName::kIdleFastForward, SpanName::kMainLoop,
                     SpanName::kEpochBarrier}) {
    calls_ns += static_cast<double>(tracer.total_ns(n));
    std::printf("#   %-14s %10.3f ms/round  %10" PRIu64 " calls\n", SpanNameStr(n), ms(n),
                tracer.count(n));
  }
  if (fleet) {
    std::printf("# board steps cover %.1f%% of epoch time; their calls %.1f%% of step time\n",
                100.0 * Ratio(step_ns, covered_ns), 100.0 * Ratio(calls_ns, step_ns));
  }
  std::filesystem::create_directories(opts.out_dir);
  const std::string trace_path = opts.out_dir + "/" + WorkloadName(params.workload) + "-seed" +
                                 std::to_string(opts.seed) + ".trace.json";
  if (tracer.Write(trace_path)) {
    std::printf("# spans written to %s\n", trace_path.c_str());
  }

  const double board_epochs = static_cast<double>(tracer.count(SpanName::kStep));
  Report(opts, params,
         {{"board.image_build_ms", ms(SpanName::kImageBuild), "ms"},
          {"board.construct_ms", ms(SpanName::kConstruct), "ms"},
          {"board.boot_ms", ms(SpanName::kBoot), "ms"},
          {"board.fleet.epochs", static_cast<double>(tracer.count(SpanName::kEpoch)) / r, "count"},
          {"board.fleet.epoch_us_p50", Percentile(trace.epoch_ns, 0.50) / 1e3, "us"},
          {"board.fleet.epoch_us_p99", Percentile(trace.epoch_ns, 0.99) / 1e3, "us"},
          {"board.fleet.step_us_p50", Percentile(trace.step_ns, 0.50) / 1e3, "us"},
          {"board.fleet.step_us_p99", Percentile(trace.step_ns, 0.99) / 1e3, "us"},
          {"board.fleet.idle_skip_ratio", Ratio(static_cast<double>(idle_skips_c), board_epochs),
           "ratio"},
          {"board.fleet.hot_board_bound",
           Ratio(static_cast<double>(trace.slowest_step_ns), step_ns / threads), "ratio"},
          {"board.fleet.sync_share", fleet ? 1.0 - Ratio(step_ns, threads * 1e9 * run_a_s) : 0.0,
           "ratio"},
          {"board.fleet.parallel_speedup", Ratio(run_b_s, run_a_s), "ratio"},
          {"kernel.syscalls", static_cast<double>(counts.stats.SyscallsTotal()), "count"},
          {"kernel.upcalls_delivered", static_cast<double>(counts.stats.upcalls_delivered),
           "count"},
          {"kernel.context_switches", static_cast<double>(counts.stats.context_switches),
           "count"},
          {"kernel.ns_per_syscall", Ratio(main_loop_ns, static_cast<double>(syscalls_c)), "ns"},
          {"kernel.idle_ff_us", us(SpanName::kIdleFastForward), "us"},
          {"kernel.telemetry.events_emitted",
           static_cast<double>(counts.stats.telemetry_events_emitted), "count"},
          {"kernel.telemetry.snapshot_us", us(SpanName::kEpochBarrier), "us"},
          {"vm.insns", static_cast<double>(counts.insns), "count"},
          {"vm.blocks_built", static_cast<double>(counts.stats.vm_blocks_built), "count"},
          {"vm.block_chain_hits", static_cast<double>(counts.stats.vm_block_chain_hits), "count"},
          {"vm.ns_per_insn", Ratio(main_loop_ns, static_cast<double>(insns_c)), "ns"},
          {"hw.radio.frames_tx", static_cast<double>(counts.frames_tx), "count"},
          {"hw.radio.frames_rx", static_cast<double>(counts.frames_rx), "count"},
          {"hw.radio.rx_overrun_ratio",
           Ratio(static_cast<double>(counts.overruns),
                 static_cast<double>(counts.frames_rx + counts.overruns)),
           "ratio"},
          {"hw.radio.link_faults", static_cast<double>(counts.link_faults), "count"},
          {"hw.radio.pump_us", us(SpanName::kPumpInbox), "us"},
          {"hw.mem.resident_mib", static_cast<double>(counts.resident_bytes) / (1 << 20), "MiB"},
          {"util.spsc.drain_us_p99", Percentile(drain_ns, 0.99) / 1e3, "us"},
          {"util.spsc.lost_ratio",
           Ratio(static_cast<double>(telemetry_lost), static_cast<double>(telemetry_emitted)),
           "ratio"},
          {"capsule.ota.frames_sent", static_cast<double>(ota_sent), "count"},
          {"capsule.ota.retransmit_ratio",
           Ratio(static_cast<double>(ota_retransmits), static_cast<double>(ota_sent)), "ratio"},
          {"capsule.ota.ledger_overcount", static_cast<double>(overcount), "count"},
          {"capsule.ota.converge_sim_s",
           params.workload == Workload::kOtaLossy ? converge_sim_s : 0.0, "s"},
          {"trace.overhead_ratio", Ratio(run_c_s, run_b_s) - 1.0, "ratio"},
          {"trace.residual_ratio", 1.0 - Ratio(covered_ns, 1e9 * run_c_s), "ratio"}},
         ledger, reference.empty() ? 0 : Digest(reference));
  return 0;
}

}  // namespace
}  // namespace tockbench

int main(int argc, char** argv) {
  using namespace tockbench;
  Options opts;
  if (!ParseOptions(argc, argv, &opts)) {
    std::fprintf(stderr,
                 "usage: tockbench --workload syscall_storm|beacon_fleet|ota_lossy --seed N\n"
                 "                 --seconds S --trace 0|1 [--size full|tiny] [--perturb]\n"
                 "                 [--out DIR] [--git-sha SHA]\n");
    return 2;
  }
  PrintHost(opts);
  if (DebugOrSanitized()) {
    std::fprintf(stderr, "tockbench: refusing to report a Debug or sanitizer build\n");
    return 3;
  }
  std::filesystem::create_directories(opts.out_dir);
  Params params = MakeParams(opts.workload, opts.seed, opts.tiny);
  params.out_dir = opts.out_dir;
  return opts.trace ? RunTraced(opts, params) : RunTimed(opts, params);
}
