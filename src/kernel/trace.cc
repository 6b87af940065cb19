// ERA: 2
#include "kernel/trace.h"

#include <cinttypes>
#include <cstdio>

namespace tock {

uint64_t& KernelStats::SyscallSlot(SyscallClass klass) {
  switch (klass) {
    case SyscallClass::kYield:
      return syscalls_yield;
    case SyscallClass::kSubscribe:
      return syscalls_subscribe;
    case SyscallClass::kCommand:
      return syscalls_command;
    case SyscallClass::kReadWriteAllow:
      return syscalls_rw_allow;
    case SyscallClass::kReadOnlyAllow:
      return syscalls_ro_allow;
    case SyscallClass::kMemop:
      return syscalls_memop;
    case SyscallClass::kExit:
      return syscalls_exit;
    case SyscallClass::kBlockingCommand:
      return syscalls_blocking_command;
  }
  return syscalls_command;  // unreachable for decoded syscalls
}

void KernelStats::Accumulate(const KernelStats& other) {
  // Every StatId-visible counter, in declaration order. Iterating over StatValue
  // would miss none either, but several ids (SyscallsTotal) are derived — sum the
  // raw fields instead.
  syscalls_yield += other.syscalls_yield;
  syscalls_subscribe += other.syscalls_subscribe;
  syscalls_command += other.syscalls_command;
  syscalls_rw_allow += other.syscalls_rw_allow;
  syscalls_ro_allow += other.syscalls_ro_allow;
  syscalls_memop += other.syscalls_memop;
  syscalls_exit += other.syscalls_exit;
  syscalls_blocking_command += other.syscalls_blocking_command;
  syscalls_unknown += other.syscalls_unknown;
  context_switches += other.context_switches;
  mpu_reprograms += other.mpu_reprograms;
  irq_dispatches += other.irq_dispatches;
  deferred_calls_run += other.deferred_calls_run;
  upcalls_queued += other.upcalls_queued;
  upcalls_delivered += other.upcalls_delivered;
  upcalls_scrubbed += other.upcalls_scrubbed;
  upcalls_dropped += other.upcalls_dropped;
  grant_allocs += other.grant_allocs;
  grant_bytes += other.grant_bytes;
  grant_frees += other.grant_frees;
  grant_bytes_freed += other.grant_bytes_freed;
  sleep_cycles += other.sleep_cycles;
  sleep_entries += other.sleep_entries;
  sleep_arg_saturations += other.sleep_arg_saturations;
  process_faults += other.process_faults;
  process_restarts += other.process_restarts;
  process_exits += other.process_exits;
  telemetry_events_emitted += other.telemetry_events_emitted;
  telemetry_events_dropped += other.telemetry_events_dropped;
  telemetry_suppressed += other.telemetry_suppressed;
  vm_blocks_built += other.vm_blocks_built;
  vm_blocks_invalidated += other.vm_blocks_invalidated;
  vm_block_chain_hits += other.vm_block_chain_hits;
  vm_cache_bytes += other.vm_cache_bytes;
  mem_resident_bytes += other.mem_resident_bytes;
  fleet_idle_skips += other.fleet_idle_skips;
}

uint64_t StatValue(const KernelStats& stats, StatId id) {
  switch (id) {
    case StatId::kSyscallsTotal:
      return stats.SyscallsTotal();
    case StatId::kSyscallsYield:
      return stats.syscalls_yield;
    case StatId::kSyscallsSubscribe:
      return stats.syscalls_subscribe;
    case StatId::kSyscallsCommand:
      return stats.syscalls_command;
    case StatId::kSyscallsRwAllow:
      return stats.syscalls_rw_allow;
    case StatId::kSyscallsRoAllow:
      return stats.syscalls_ro_allow;
    case StatId::kSyscallsMemop:
      return stats.syscalls_memop;
    case StatId::kSyscallsExit:
      return stats.syscalls_exit;
    case StatId::kSyscallsBlockingCommand:
      return stats.syscalls_blocking_command;
    case StatId::kContextSwitches:
      return stats.context_switches;
    case StatId::kMpuReprograms:
      return stats.mpu_reprograms;
    case StatId::kIrqDispatches:
      return stats.irq_dispatches;
    case StatId::kDeferredCallsRun:
      return stats.deferred_calls_run;
    case StatId::kUpcallsQueued:
      return stats.upcalls_queued;
    case StatId::kUpcallsDelivered:
      return stats.upcalls_delivered;
    case StatId::kUpcallsScrubbed:
      return stats.upcalls_scrubbed;
    case StatId::kUpcallsDropped:
      return stats.upcalls_dropped;
    case StatId::kGrantAllocs:
      return stats.grant_allocs;
    case StatId::kGrantBytes:
      return stats.grant_bytes;
    case StatId::kSleepCycles:
      return stats.sleep_cycles;
    case StatId::kSleepEntries:
      return stats.sleep_entries;
    case StatId::kProcessFaults:
      return stats.process_faults;
    case StatId::kProcessRestarts:
      return stats.process_restarts;
    case StatId::kProcessExits:
      return stats.process_exits;
    case StatId::kSyscallsUnknown:
      return stats.syscalls_unknown;
    case StatId::kGrantFrees:
      return stats.grant_frees;
    case StatId::kGrantBytesFreed:
      return stats.grant_bytes_freed;
    case StatId::kSleepArgSaturations:
      return stats.sleep_arg_saturations;
    case StatId::kTelemetryEventsEmitted:
      return stats.telemetry_events_emitted;
    case StatId::kTelemetryEventsDropped:
      return stats.telemetry_events_dropped;
    case StatId::kTelemetrySuppressed:
      return stats.telemetry_suppressed;
    case StatId::kVmBlocksBuilt:
      return stats.vm_blocks_built;
    case StatId::kVmBlocksInvalidated:
      return stats.vm_blocks_invalidated;
    case StatId::kVmBlockChainHits:
      return stats.vm_block_chain_hits;
    case StatId::kVmCacheBytes:
      return stats.vm_cache_bytes;
    case StatId::kMemResidentBytes:
      return stats.mem_resident_bytes;
    case StatId::kFleetIdleSkips:
      return stats.fleet_idle_skips;
    case StatId::kNumStats:
      break;
  }
  return 0;
}

const char* StatName(StatId id) {
  switch (id) {
    case StatId::kSyscallsTotal:
      return "syscalls.total";
    case StatId::kSyscallsYield:
      return "syscalls.yield";
    case StatId::kSyscallsSubscribe:
      return "syscalls.subscribe";
    case StatId::kSyscallsCommand:
      return "syscalls.command";
    case StatId::kSyscallsRwAllow:
      return "syscalls.rw_allow";
    case StatId::kSyscallsRoAllow:
      return "syscalls.ro_allow";
    case StatId::kSyscallsMemop:
      return "syscalls.memop";
    case StatId::kSyscallsExit:
      return "syscalls.exit";
    case StatId::kSyscallsBlockingCommand:
      return "syscalls.blocking_command";
    case StatId::kContextSwitches:
      return "sched.context_switches";
    case StatId::kMpuReprograms:
      return "sched.mpu_reprograms";
    case StatId::kIrqDispatches:
      return "irq.dispatches";
    case StatId::kDeferredCallsRun:
      return "deferred.calls_run";
    case StatId::kUpcallsQueued:
      return "upcalls.queued";
    case StatId::kUpcallsDelivered:
      return "upcalls.delivered";
    case StatId::kUpcallsScrubbed:
      return "upcalls.scrubbed";
    case StatId::kUpcallsDropped:
      return "upcalls.dropped";
    case StatId::kGrantAllocs:
      return "grants.allocs";
    case StatId::kGrantBytes:
      return "grants.bytes";
    case StatId::kSleepCycles:
      return "sleep.cycles";
    case StatId::kSleepEntries:
      return "sleep.entries";
    case StatId::kProcessFaults:
      return "process.faults";
    case StatId::kProcessRestarts:
      return "process.restarts";
    case StatId::kProcessExits:
      return "process.exits";
    case StatId::kSyscallsUnknown:
      return "syscalls.unknown";
    case StatId::kGrantFrees:
      return "grants.frees";
    case StatId::kGrantBytesFreed:
      return "grants.bytes_freed";
    case StatId::kSleepArgSaturations:
      return "sleep.arg_saturations";
    case StatId::kTelemetryEventsEmitted:
      return "telemetry.events_emitted";
    case StatId::kTelemetryEventsDropped:
      return "telemetry.events_dropped";
    case StatId::kTelemetrySuppressed:
      return "telemetry.suppressed";
    case StatId::kVmBlocksBuilt:
      return "vm.blocks_built";
    case StatId::kVmBlocksInvalidated:
      return "vm.blocks_invalidated";
    case StatId::kVmBlockChainHits:
      return "vm.block_chain_hits";
    case StatId::kVmCacheBytes:
      return "vm.cache_bytes";
    case StatId::kMemResidentBytes:
      return "mem.resident_bytes";
    case StatId::kFleetIdleSkips:
      return "fleet.idle_skips";
    case StatId::kNumStats:
      break;
  }
  return "?";
}

bool StatIsHostOnly(StatId id) {
  switch (id) {
    // Live telemetry transport: host-side publishing work, identical with or
    // without a tap attached.
    case StatId::kTelemetryEventsEmitted:
    case StatId::kTelemetryEventsDropped:
    case StatId::kTelemetrySuppressed:
    // Interpreter engine bookkeeping, which differs across engines.
    case StatId::kVmBlocksBuilt:
    case StatId::kVmBlocksInvalidated:
    case StatId::kVmBlockChainHits:
    case StatId::kVmCacheBytes:
    // Fleet scale-out gauges: resident memory differs across paging on/off legs
    // and idle skips across idle-skip on/off legs, all simulated-state identical.
    case StatId::kMemResidentBytes:
    case StatId::kFleetIdleSkips:
      return true;
    default:
      return false;
  }
}

uint32_t FaultCauseArg(const VmFault& fault) {
  uint32_t arg = static_cast<uint32_t>(fault.kind);
  if (fault.kind == VmFault::Kind::kBus) {
    arg |= static_cast<uint32_t>(fault.bus_fault.kind) << 8;
  }
  return arg;
}

const char* FaultCauseName(uint32_t cause_arg) {
  switch (static_cast<VmFault::Kind>(cause_arg & 0xFF)) {
    case VmFault::Kind::kNone:
      return "none";
    case VmFault::Kind::kIllegalInstruction:
      return "illegal-instruction";
    case VmFault::Kind::kMisalignedJump:
      return "misaligned-jump";
    case VmFault::Kind::kBus:
      switch (static_cast<BusFaultKind>((cause_arg >> 8) & 0xFF)) {
        case BusFaultKind::kNone:
          return "bus";
        case BusFaultKind::kUnmapped:
          return "bus-unmapped";
        case BusFaultKind::kMpuViolation:
          return "mpu-violation";
        case BusFaultKind::kFlashWrite:
          return "bus-flash-write";
        case BusFaultKind::kUnalignedMmio:
          return "bus-unaligned-mmio";
      }
      return "bus";
  }
  return "?";
}

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kSyscall:
      return "syscall";
    case TraceEventKind::kContextSwitch:
      return "ctxswitch";
    case TraceEventKind::kMpuReprogram:
      return "mpu";
    case TraceEventKind::kIrqDispatch:
      return "irq";
    case TraceEventKind::kDeferredCall:
      return "deferred";
    case TraceEventKind::kUpcallQueued:
      return "upq";
    case TraceEventKind::kUpcallDelivered:
      return "updeliver";
    case TraceEventKind::kUpcallScrubbed:
      return "upscrub";
    case TraceEventKind::kUpcallDropped:
      return "updrop";
    case TraceEventKind::kGrantAlloc:
      return "grant";
    case TraceEventKind::kSleep:
      return "sleep";
    case TraceEventKind::kProcessFault:
      return "fault";
    case TraceEventKind::kProcessRestart:
      return "restart";
    case TraceEventKind::kProcessExit:
      return "exit";
    case TraceEventKind::kGrantFree:
      return "grantfree";
  }
  return "?";
}

const char* CycleBucketName(CycleBucket bucket) {
  switch (bucket) {
    case CycleBucket::kKernel:
      return "kernel";
    case CycleBucket::kUser:
      return "user";
    case CycleBucket::kService:
      return "service";
    case CycleBucket::kCapsule:
      return "deferred";
    case CycleBucket::kIrq:
      return "irq";
    case CycleBucket::kIdle:
      return "idle";
  }
  return "?";
}

uint64_t ProcStatValue(const ProcStats& stats, ProcStatField field) {
  switch (field) {
    case ProcStatField::kUserCycles:
      return stats.user_cycles;
    case ProcStatField::kServiceCycles:
      return stats.service_cycles;
    case ProcStatField::kSyscalls:
      return stats.syscalls;
    case ProcStatField::kUpcalls:
      return stats.upcalls;
    case ProcStatField::kGrantHighWater:
      return stats.grant_high_water;
    case ProcStatField::kUpcallQueueMax:
      return stats.upcall_queue_max;
    case ProcStatField::kRestarts:
      return stats.restarts;
    case ProcStatField::kContextSwitches:
      return stats.context_switches;
    case ProcStatField::kTimesliceExpirations:
      return stats.timeslice_expirations;
    case ProcStatField::kPriority:
      return stats.priority;
    case ProcStatField::kQueueLevel:
      return stats.queue_level;
    case ProcStatField::kNumFields:
      break;
  }
  return 0;
}

const char* ProcStatName(ProcStatField field) {
  switch (field) {
    case ProcStatField::kUserCycles:
      return "user_cycles";
    case ProcStatField::kServiceCycles:
      return "service_cycles";
    case ProcStatField::kSyscalls:
      return "syscalls";
    case ProcStatField::kUpcalls:
      return "upcalls";
    case ProcStatField::kGrantHighWater:
      return "grant_high_water";
    case ProcStatField::kUpcallQueueMax:
      return "upcall_queue_max";
    case ProcStatField::kRestarts:
      return "restarts";
    case ProcStatField::kContextSwitches:
      return "context_switches";
    case ProcStatField::kTimesliceExpirations:
      return "timeslice_expirations";
    case ProcStatField::kPriority:
      return "priority";
    case ProcStatField::kQueueLevel:
      return "queue_level";
    case ProcStatField::kNumFields:
      break;
  }
  return "?";
}

void KernelTrace::DumpStats(std::string& out) const {
  char line[96];
  out += "==== kernel stats ====\n";
  for (uint32_t i = 0; i < static_cast<uint32_t>(StatId::kNumStats); ++i) {
    StatId id = static_cast<StatId>(i);
    if (StatIsHostOnly(id)) {
      continue;  // host-side bookkeeping (telemetry transport, vm engine); keeps
                 // the dump golden-identical across telemetry and engine configs
    }
    std::snprintf(line, sizeof(line), "%-26s %" PRIu64 "\n", StatName(id),
                  StatValue(stats_, id));
    out += line;
  }
}

void DumpLog2Hist(const Log2Hist& hist, const char* name, std::string& out) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%-10s n=%" PRIu64 " min=%" PRIu64 " max=%" PRIu64
                " mean=%" PRIu64 "\n",
                name, hist.count(), hist.min(), hist.max(), hist.Mean());
  out += buf;
  if (hist.count() == 0) {
    return;
  }
  for (size_t i = 0; i < Log2Hist::kBuckets; ++i) {
    if (hist.bucket(i) == 0) {
      continue;
    }
    if (i == Log2Hist::kBuckets - 1) {
      std::snprintf(buf, sizeof(buf), "  [2^%zu,     inf) %" PRIu64 "\n", i,
                    hist.bucket(i));
    } else {
      std::snprintf(buf, sizeof(buf), "  [2^%-2zu, 2^%-2zu) %" PRIu64 "\n", i, i + 1,
                    hist.bucket(i));
    }
    out += buf;
  }
}

void KernelTrace::DumpHists(std::string& out) const {
  out += "==== latency histograms (cycles) ====\n";
  DumpLog2Hist(hist_syscall_, "syscall", out);
  DumpLog2Hist(hist_irq_upcall_, "irq2up", out);
  DumpLog2Hist(hist_roundtrip_, "roundtrip", out);
}

void KernelTrace::DumpTrace(std::string& out) const {
  char line[96];
  std::snprintf(line, sizeof(line),
                "==== trace (%zu events retained, %" PRIu64 " evicted) ====\n",
                ring_.Size(), ring_.Evicted());
  out += line;
  ring_.ForEach([&](const TraceEvent& e) {
    if (e.pid == kNoPid) {
      std::snprintf(line, sizeof(line), "[%10" PRIu64 "] %-10s pid=-  arg=%u\n", e.cycle,
                    TraceEventKindName(e.kind), e.arg);
    } else {
      std::snprintf(line, sizeof(line), "[%10" PRIu64 "] %-10s pid=%u  arg=%u\n", e.cycle,
                    TraceEventKindName(e.kind), e.pid, e.arg);
    }
    out += line;
  });
}

}  // namespace tock
