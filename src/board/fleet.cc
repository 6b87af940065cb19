// ERA: 2
#include "board/fleet.h"

#include <algorithm>
#include <barrier>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace tock {

void Fleet::AlignClocks() {
  uint64_t max_now = 0;
  for (SimBoard* board : boards_) {
    max_now = std::max(max_now, board->mcu().CyclesNow());
  }
  for (SimBoard* board : boards_) {
    uint64_t now = board->mcu().CyclesNow();
    if (now < max_now) {
      // Alignment happens before the measured run: the skipped cycles pass
      // outside the active/sleep energy accounting, firing any boot-scheduled
      // events on the way.
      board->mcu().clock().Advance(max_now - now);
    }
  }
}

uint64_t Fleet::EffectiveSlice() const {
  uint64_t slice = config_.slice == 0 ? 1 : config_.slice;
  if (medium_->attached_count() > 0) {
    // Conservative-parallel stepping: an epoch may never outrun the earliest
    // possible radio arrival, or a receiver could simulate past a frame still
    // sitting in its mailbox.
    slice = std::min(slice, RadioMedium::Lookahead());
  }
  return slice;
}

void Fleet::StepBoard(size_t i, uint64_t epoch_start, uint64_t epoch_end, Doze& doze) {
  SimBoard* board = boards_[i];
  if (doze.wake != 0) {
    // Woken by its own event or by a frame: catch up on the idle passes it
    // deferred, so the clock sits on epoch_start as if it had been stepped.
    Wake(i, epoch_start, doze);
  }
  // Drain frames peers sent during earlier epochs onto this board's own clock.
  board->radio_hw().PumpInbox();
  uint64_t target = std::min(epoch_end, targets_[i]);
  if (board->mcu().CyclesNow() >= target) {
    return;
  }
  // Idle fast-forward: a board that is provably quiescent until `target` — and
  // whose radio inbox holds no un-pumped frame — skips the kernel main loop
  // entirely. After the pump above, the inbox can only hold frames a peer sent
  // during this epoch, which arrive at or past epoch_end (the lookahead clamp),
  // so the inbox check, one atomic load, only keeps the skip proof local to
  // this board. The kernel replays the main-loop passes stepping would have
  // made, byte for byte, so simulated state is bit-identical either way; only
  // the host-only fleet.idle_skips counter records that the shortcut was taken.
  if (config_.idle_skip && board->radio_hw().InboxEmpty() &&
      board->kernel().IsQuiescedUntil(target)) {
    const uint64_t wake = board->mcu().clock().NextEventAt();
    if (wake > target) {
      // Doze: defer this pass and every later idle one until the board's event
      // falls due, a frame lands in its mailbox, or Run() ends. Nothing fires
      // in a deferred pass, so deferring changes no simulated state; each pass
      // would clear the wedged flag (the board has a future event), so clear
      // it now for Supervise.
      doze = Doze{wake, target};
      board->mcu().ClearWedged();
      return;
    }
    // The event falls due on the grid point itself: run this one pass now, so
    // a deferred pass never fires an event.
    board->kernel().TryIdleFastForward(target, board->main_cap());
  } else {
    board->kernel().MainLoop(target, board->main_cap());
    // A wedged (or panicked) board stalls short of the target; peers may still
    // address radio frames to it, so force the clock forward to preserve
    // lockstep.
    if (board->mcu().CyclesNow() < target) {
      board->mcu().clock().Advance(target - board->mcu().CyclesNow());
    }
  }
  // Host-side observability only (telemetry snapshot, trace-artifact flush):
  // runs on the board's owning thread while the board is quiesced, and never
  // touches simulated state — fleet fingerprints are invariant to it.
  board->OnEpochBarrier();
}

void Fleet::Wake(size_t i, uint64_t until, Doze& doze) {
  SimBoard* board = boards_[i];
  // The board dozed only while its next event lay past every deferred pass end
  // and its mailbox stayed empty, so the quiescence it was proven to have when
  // it started dozing still holds; the replay proves it once more.
  // SimBoard itself stays free of virtual functions: a vtable pointer would
  // shift every member of every board, and with them the data layout of the
  // kernel's hot paths.
  struct Hook final : EpochBarrierObserver {
    explicit Hook(SimBoard* b) : board(b) {}
    void OnEpochBarrier() override { board->OnEpochBarrier(); }
    SimBoard* board;
  } hook(board);
  const bool replayed = board->kernel().ReplayIdlePasses(
      doze.first_end, slice_, std::min(until, targets_[i]), board->main_cap(), &hook);
  if (!replayed) {
    std::fprintf(stderr, "fleet: board %zu lost quiescence while dozing\n", i);
    std::abort();
  }
  doze.wake = 0;
}

// Supervise(i) runs on board i's owning thread right after StepBoard(i), while
// peers on other threads are still stepping. That is safe because it reads and
// revives only board i, and a peer can reach board i only through its radio
// mailbox: an un-pumped frame is not a clock event, so whether board i slept
// with nothing left to wake it — mcu().wedged() — cannot depend on what peers
// send it during the same epoch. Those frames are pumped, and can end the
// wedge, at the next epoch boundary, as when supervision ran after every board.
void Fleet::Supervise(size_t i) {
  SimBoard* board = boards_[i];
  BoardHealth& health = health_[i];
  if (!board->mcu().wedged()) {
    health.wedged = false;
    health.consecutive_wedged = 0;
    return;
  }
  health.wedged = true;
  ++health.wedge_events;
  ++health.consecutive_wedged;
  if (!config_.restart_wedged || health.consecutive_wedged < config_.wedge_grace_epochs) {
    return;
  }
  // Check-alive failed for `wedge_grace_epochs` consecutive barriers (the grace
  // period covers a board that merely idles while a frame sits un-pumped in its
  // mailbox). Sustain the board by reviving its dead processes through the
  // capability-gated restart path — the board-local analog of a fleet process
  // supervisor relaunching a crashed worker.
  Kernel& kernel = board->kernel();
  for (size_t p = 0; p < Kernel::kMaxProcesses; ++p) {
    Process* proc = kernel.process(p);
    if (proc == nullptr || !proc->id.IsValid()) {
      continue;
    }
    if (proc->state == ProcessState::kTerminated || proc->state == ProcessState::kFaulted) {
      if (kernel.RestartProcess(proc->id, board->pm_cap()).ok()) {
        ++health.supervised_restarts;
      }
    }
  }
  health.consecutive_wedged = 0;
  board->mcu().ClearWedged();
}

void Fleet::Run(uint64_t cycles) {
  if (boards_.empty() || cycles == 0) {
    return;
  }
  uint64_t slice = EffectiveSlice();
  targets_.resize(boards_.size());
  uint64_t start = UINT64_MAX;
  uint64_t end = 0;
  for (size_t i = 0; i < boards_.size(); ++i) {
    uint64_t now = boards_[i]->mcu().CyclesNow();
    targets_[i] = now + cycles;
    start = std::min(start, now);
    end = std::max(end, targets_[i]);
  }

  unsigned threads = std::max(1u, config_.threads);
  threads = static_cast<unsigned>(
      std::min<size_t>(threads, boards_.size()));

  // Board i belongs to thread i % threads. Every thread walks the same epoch
  // sequence: step and supervise its shard, then meet the others at one
  // barrier. The barrier is the happens-before edge that makes the mailbox
  // handoff race-free: every Enqueue in epoch k is ordered before every
  // PumpInbox in epoch k+1. Cross-board delivery is ordered by the frame's
  // (deliver_at, sender, seq) key, never by which thread stepped the receiver,
  // so the shard count never reaches simulated state.
  //
  // A dozing board costs its thread one check per epoch: its next event still
  // lies past this epoch's end and its mailbox is empty. Supervision is skipped
  // with the step, which is exact: a dozing board has a future event, so it
  // is not wedged, and Supervise would only reset its already-reset ledger.
  // Its doze record lives with the shard, so no other thread writes near it.
  slice_ = slice;
  std::barrier epoch_done(static_cast<std::ptrdiff_t>(threads));
  auto run_shard = [&](unsigned shard) {
    std::vector<Doze> dozes((boards_.size() - shard + threads - 1) / threads);
    for (uint64_t t = start; t < end;) {
      const uint64_t epoch_end = std::min(t + slice, end);
      for (size_t i = shard, k = 0; i < boards_.size(); i += threads, ++k) {
        if (std::min(epoch_end, targets_[i]) < dozes[k].wake &&
            boards_[i]->radio_hw().InboxEmpty()) {
          continue;
        }
        StepBoard(i, t, epoch_end, dozes[k]);
        Supervise(i);
      }
      epoch_done.arrive_and_wait();
      t = epoch_end;
    }
    for (size_t i = shard, k = 0; i < boards_.size(); i += threads, ++k) {
      if (dozes[k].wake != 0) {
        Wake(i, end, dozes[k]);
      }
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(threads - 1);
  for (unsigned w = 1; w < threads; ++w) {
    workers.emplace_back(run_shard, w);
  }
  run_shard(0);
  for (std::thread& worker : workers) {
    worker.join();
  }
}

FleetStats Fleet::Stats() const {
  FleetStats stats;
  stats.boards = boards_.size();
  for (size_t i = 0; i < boards_.size(); ++i) {
    SimBoard* board = boards_[i];
    stats.aggregate.Accumulate(board->kernel().stats());
    stats.instructions += board->kernel().instructions_retired();
    stats.active_cycles += board->mcu().active_cycles();
    stats.sleep_cycles += board->mcu().sleep_cycles();
    stats.packets_sent += board->radio_hw().packets_sent();
    stats.packets_received += board->radio_hw().packets_received();
    stats.rx_overruns += board->radio_hw().rx_overruns();
    LinkFaultCounters faults = board->radio_hw().fault_counters();
    stats.frames_dropped += faults.dropped;
    stats.frames_duplicated += faults.duplicated;
    stats.frames_reordered += faults.reordered;
    stats.frames_corrupted += faults.corrupted;
    if (board->kernel().NumLiveProcesses() > 0 ||
        board->mcu().clock().HasPendingEvents()) {
      ++stats.boards_live;
    }
    stats.wedge_events += health_[i].wedge_events;
    stats.supervised_restarts += health_[i].supervised_restarts;
  }
  return stats;
}

}  // namespace tock
