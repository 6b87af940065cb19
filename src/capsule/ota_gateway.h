// ERA: 2
// OTA gateway capsule: pushes one signed TBF image to a set of subscriber boards
// over the lossy packet radio (capsule/ota_protocol.h). The §3.4 deployment story
// as a capsule: the gateway chunks the image, runs a per-subscriber seq/ack
// sliding window with per-chunk CRCs, retransmits on exponential-backoff
// timeouts, and — when a subscriber reports that a reassembled image failed the
// integrity/authenticity pipeline — re-pushes the whole image under a fresh
// transfer id, up to a bounded retry budget, then gives up and reports. Nothing
// here ever blocks: every wait is a VirtualAlarm tick, every send is split-phase.
//
// Concurrency discipline: one radio TX may be outstanding at a time, so a single
// round-robin pump (Pump) picks the next due frame across all subscribers from
// TransmitDone / PacketReceived / AlarmFired. All timers are wrapping 32-bit
// (reference, dt) pairs checked with hil::Alarm::Expired.
#ifndef TOCK_CAPSULE_OTA_GATEWAY_H_
#define TOCK_CAPSULE_OTA_GATEWAY_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "capsule/ota_protocol.h"
#include "capsule/virtual_alarm.h"
#include "hw/radio.h"
#include "kernel/hil.h"
#include "kernel/process_loader.h"
#include "util/crc32.h"

namespace tock {

struct OtaGatewayStats {
  uint64_t frames_sent = 0;
  uint64_t retransmits = 0;       // chunk frames sent beyond the first attempt
  uint64_t frame_crc_drops = 0;   // received frames failing the FCS trailer
  uint64_t acks_received = 0;
  uint64_t statuses_received = 0;
  uint64_t image_repushes = 0;    // whole-image retries after a typed rejection
  uint64_t converged = 0;         // subscribers running the signed update
  uint64_t failed = 0;            // subscribers given up on (retry budget spent)
  // Typed rejection tallies, from subscriber kStatus codes (§3.4 stages).
  uint64_t reject_integrity = 0;     // structural / unsigned
  uint64_t reject_authenticity = 0;  // signature verification failed
  uint64_t reject_image_crc = 0;     // reassembled bytes failed the image CRC
  uint64_t reject_other = 0;
};

class OtaGateway : public hil::RadioClient, public hil::AlarmClient {
 public:
  // Retry/backoff constants (documented in DESIGN.md §12). Timeouts are in alarm
  // ticks (== cycles); a data chunk occupies the air for ~75k cycles.
  static constexpr uint32_t kWindow = 4;             // outstanding chunks per peer
  static constexpr uint32_t kChunkTimeout = 400'000;  // base, doubles per retry
  static constexpr uint32_t kCtrlTimeout = 600'000;   // announce/poll base timeout
  static constexpr uint32_t kBackoffCap = 3;          // max left-shift of a timeout
  static constexpr uint32_t kChunkRetryLimit = 12;    // per-chunk sends before giving up
  static constexpr uint32_t kCtrlRetryLimit = 12;     // announce/poll sends before giving up
  static constexpr uint32_t kImageRetryLimit = 3;     // whole-image pushes per subscriber
  static constexpr uint32_t kTickInterval = 50'000;   // pump/timeout sweep period

  enum class PeerState : uint8_t {
    kIdle,         // not started
    kAnnouncing,   // kAnnounce sent, waiting for the first ack
    kSending,      // sliding window in flight
    kAwaitStatus,  // all chunks acked; polling for the load outcome
    kConverged,    // subscriber reported the signed update running
    kFailed,       // retry budget exhausted — reported and abandoned
  };

  OtaGateway(hil::PacketRadio* radio, VirtualAlarmMux* mux)
      : radio_(radio), mux_(mux), alarm_(mux) {}

  // Board-init wiring: takes over the radio client slot and starts the tick
  // alarm. Only called on boards that play the gateway role.
  void Activate() {
    active_ = true;
    radio_->SetRadioClient(this);
    mux_->AddClient(&alarm_);
    alarm_.SetClient(this);
    ArmRx();
    alarm_.SetAlarm(alarm_.Now(), kTickInterval);
  }

  // Installs the image to distribute and the subscriber set. The image must have
  // been built for the staging address every subscriber will load from.
  void Configure(std::vector<uint8_t> image, const std::vector<uint16_t>& subscribers) {
    image_ = std::move(image);
    image_crc_ = Crc32::Compute(image_.data(), image_.size());
    total_chunks_ = static_cast<uint16_t>((image_.size() + OtaWire::kChunkData - 1) /
                                          OtaWire::kChunkData);
    peers_.clear();
    for (uint16_t addr : subscribers) {
      Peer p;
      p.addr = addr;
      peers_.push_back(std::move(p));
    }
  }

  // Kicks off the push to every configured subscriber.
  void StartPush() {
    uint32_t now = alarm_.Now();
    for (Peer& p : peers_) {
      BeginTransfer(p, now);
    }
    Pump(now);
  }

  bool Done() const {
    for (const Peer& p : peers_) {
      if (p.state != PeerState::kConverged && p.state != PeerState::kFailed) {
        return false;
      }
    }
    return true;
  }

  const OtaGatewayStats& stats() const { return stats_; }
  PeerState peer_state(size_t i) const { return peers_[i].state; }
  uint8_t peer_last_status(size_t i) const { return peers_[i].last_status; }
  size_t peer_count() const { return peers_.size(); }

  // --- hil::RadioClient ---
  void TransmitDone(SubSliceMut buffer, Result<void> result) override {
    (void)buffer;
    (void)result;
    tx_busy_ = false;
    Pump(alarm_.Now());
  }

  void PacketReceived(SubSliceMut buffer, uint32_t len) override {
    HandleFrame(buffer.Active().data(), len);
    ArmRx();
    Pump(alarm_.Now());
  }

  // --- hil::AlarmClient ---
  void AlarmFired() override {
    uint32_t now = alarm_.Now();
    SweepTimeouts(now);
    Pump(now);
    alarm_.SetAlarm(now, kTickInterval);
  }

 private:
  struct Outstanding {
    uint16_t chunk = 0;
    uint32_t retries = 0;   // sends so far (1 == first transmission done)
    uint32_t sent_ref = 0;  // wrapping tick of the last send
  };

  struct Peer {
    uint16_t addr = 0;
    PeerState state = PeerState::kIdle;
    uint8_t xfer = 0;
    uint16_t base = 0;        // all chunks below this are acked
    uint32_t ack_bits = 0;    // acked chunks base+1 .. base+32 (bit i = base+1+i)
    uint16_t next_unsent = 0; // lowest chunk never transmitted this push
    std::vector<Outstanding> window;
    uint32_t ctrl_retries = 0;
    uint32_t ctrl_ref = 0;
    uint32_t ctrl_dt = 0;     // 0 == control frame due immediately
    uint32_t image_attempts = 0;
    uint8_t last_status = 0xFF;
  };

  static uint32_t Backoff(uint32_t base, uint32_t retries) {
    uint32_t shift = retries < kBackoffCap ? retries : kBackoffCap;
    return base << shift;
  }

  void BeginTransfer(Peer& p, uint32_t now) {
    p.state = PeerState::kAnnouncing;
    p.xfer = next_xfer_++;
    p.base = 0;
    p.ack_bits = 0;
    p.next_unsent = 0;
    p.window.clear();
    p.ctrl_retries = 0;
    p.ctrl_ref = now;
    p.ctrl_dt = 0;  // announce due immediately
  }

  void FailPeer(Peer& p) {
    p.state = PeerState::kFailed;
    p.window.clear();
    ++stats_.failed;
  }

  bool IsAcked(const Peer& p, uint16_t chunk) const {
    if (chunk < p.base) {
      return true;
    }
    if (chunk > p.base && chunk - p.base - 1 < 32) {
      return (p.ack_bits >> (chunk - p.base - 1)) & 1u;
    }
    return false;
  }

  bool InWindow(const Peer& p, uint16_t chunk) const {
    for (const Outstanding& o : p.window) {
      if (o.chunk == chunk) {
        return true;
      }
    }
    return false;
  }

  void ArmRx() {
    SubSliceMut rx(rx_buf_.data(), rx_buf_.size());
    radio_->StartReceive(rx);  // single-client slot: refusal means already armed
  }

  bool SendFrame(uint16_t dst, size_t len) {
    SubSliceMut tx(tx_buf_.data(), tx_buf_.size());
    tx.SliceTo(len);
    if (radio_->TransmitPacket(dst, tx).has_value()) {
      return false;  // chip busy; the pump retries on the next event
    }
    tx_busy_ = true;
    ++stats_.frames_sent;
    return true;
  }

  bool SendAnnounce(Peer& p) {
    uint8_t* f = tx_buf_.data();
    f[0] = static_cast<uint8_t>(OtaFrameType::kAnnounce);
    f[1] = p.xfer;
    OtaWire::Put16(f + 2, total_chunks_);
    OtaWire::Put32(f + 4, static_cast<uint32_t>(image_.size()));
    OtaWire::Put32(f + 8, image_crc_);
    OtaWire::Put16(f + 12, radio_->LocalAddress());
    return SendFrame(p.addr, OtaWire::Seal(f, OtaWire::kAnnounceSize));
  }

  bool SendChunk(Peer& p, uint16_t chunk) {
    size_t off = static_cast<size_t>(chunk) * OtaWire::kChunkData;
    size_t len = image_.size() - off;
    if (len > OtaWire::kChunkData) {
      len = OtaWire::kChunkData;
    }
    uint8_t* f = tx_buf_.data();
    f[0] = static_cast<uint8_t>(OtaFrameType::kData);
    f[1] = p.xfer;
    OtaWire::Put16(f + 2, chunk);
    OtaWire::Put16(f + 4, static_cast<uint16_t>(len));
    OtaWire::Put32(f + 6, Crc32::Compute(image_.data() + off, len));
    std::memcpy(f + OtaWire::kDataHeaderSize, image_.data() + off, len);
    return SendFrame(p.addr, OtaWire::Seal(f, OtaWire::kDataHeaderSize + len));
  }

  bool SendPoll(Peer& p) {
    uint8_t* f = tx_buf_.data();
    f[0] = static_cast<uint8_t>(OtaFrameType::kPoll);
    f[1] = p.xfer;
    return SendFrame(p.addr, OtaWire::Seal(f, OtaWire::kPollSize));
  }

  // Emits at most one frame for this peer if one is due at `now`. Returns true
  // if a frame went out (the pump then stops until the next TransmitDone).
  bool PumpPeer(Peer& p, uint32_t now) {
    switch (p.state) {
      case PeerState::kAnnouncing:
      case PeerState::kAwaitStatus: {
        if (p.ctrl_dt != 0 && !hil::Alarm::Expired(now, p.ctrl_ref, p.ctrl_dt)) {
          return false;
        }
        bool sent = p.state == PeerState::kAnnouncing ? SendAnnounce(p) : SendPoll(p);
        if (sent) {
          ++p.ctrl_retries;
          p.ctrl_ref = now;
          p.ctrl_dt = Backoff(kCtrlTimeout, p.ctrl_retries);
        }
        return sent;
      }
      case PeerState::kSending: {
        // Expired outstanding chunk first: selective retransmit with backoff.
        for (Outstanding& o : p.window) {
          if (hil::Alarm::Expired(now, o.sent_ref, Backoff(kChunkTimeout, o.retries))) {
            if (!SendChunk(p, o.chunk)) {
              return false;
            }
            ++o.retries;
            ++stats_.retransmits;
            o.sent_ref = now;
            return true;
          }
        }
        // Otherwise grow the window with the next never-acked chunk.
        if (p.window.size() >= kWindow) {
          return false;
        }
        uint16_t chunk = p.next_unsent;
        while (chunk < total_chunks_ && (IsAcked(p, chunk) || InWindow(p, chunk))) {
          ++chunk;
        }
        if (chunk >= total_chunks_) {
          return false;  // everything in flight or acked
        }
        if (!SendChunk(p, chunk)) {
          return false;
        }
        p.next_unsent = static_cast<uint16_t>(chunk + 1);
        p.window.push_back(Outstanding{chunk, 1, now});
        return true;
      }
      default:
        return false;
    }
  }

  void Pump(uint32_t now) {
    if (!active_ || tx_busy_ || peers_.empty()) {
      return;
    }
    size_t n = peers_.size();
    for (size_t k = 0; k < n; ++k) {
      size_t i = (rr_cursor_ + k) % n;
      if (PumpPeer(peers_[i], now)) {
        rr_cursor_ = (i + 1) % n;
        return;
      }
    }
  }

  // Gives up on peers whose retry budgets ran dry. Separate from the pump so a
  // peer stuck behind a busy radio is not failed early.
  void SweepTimeouts(uint32_t now) {
    (void)now;
    for (Peer& p : peers_) {
      switch (p.state) {
        case PeerState::kAnnouncing:
        case PeerState::kAwaitStatus:
          if (p.ctrl_retries > kCtrlRetryLimit) {
            FailPeer(p);
          }
          break;
        case PeerState::kSending:
          for (const Outstanding& o : p.window) {
            if (o.retries > kChunkRetryLimit) {
              FailPeer(p);
              break;
            }
          }
          break;
        default:
          break;
      }
    }
  }

  Peer* FindPeer(uint16_t addr) {
    for (Peer& p : peers_) {
      if (p.addr == addr) {
        return &p;
      }
    }
    return nullptr;
  }

  void HandleFrame(const uint8_t* f, uint32_t len) {
    if (!OtaWire::SealIntact(f, len)) {
      // Any corruption — header or payload — degrades to a drop; the same
      // timeout/retry machinery that recovers losses recovers this.
      ++stats_.frame_crc_drops;
      return;
    }
    len -= OtaWire::kCrcTrailer;
    if (len < 2) {
      return;
    }
    switch (static_cast<OtaFrameType>(f[0])) {
      case OtaFrameType::kAck: {
        if (len < OtaWire::kAckSize) {
          return;
        }
        Peer* p = FindPeer(OtaWire::Get16(f + 2));
        if (p == nullptr || f[1] != p->xfer) {
          return;  // stale transfer or unknown subscriber
        }
        ++stats_.acks_received;
        HandleAck(*p, OtaWire::Get16(f + 4), OtaWire::Get32(f + 6));
        return;
      }
      case OtaFrameType::kStatus: {
        if (len < OtaWire::kStatusSize) {
          return;
        }
        Peer* p = FindPeer(OtaWire::Get16(f + 2));
        if (p == nullptr || f[1] != p->xfer) {
          return;
        }
        ++stats_.statuses_received;
        HandleStatus(*p, f[4]);
        return;
      }
      default:
        return;  // gateways ignore announce/data/poll
    }
  }

  void HandleAck(Peer& p, uint16_t next_expected, uint32_t bits) {
    if (p.state == PeerState::kAnnouncing) {
      p.state = PeerState::kSending;
    }
    if (p.state != PeerState::kSending) {
      return;  // late ack after completion
    }
    if (next_expected > p.base) {
      p.base = next_expected;
      p.ack_bits = bits;
    } else if (next_expected == p.base) {
      p.ack_bits |= bits;
    }  // next_expected < base: stale (duplicated/reordered ack) — ignore
    for (size_t i = p.window.size(); i-- > 0;) {
      if (IsAcked(p, p.window[i].chunk)) {
        p.window.erase(p.window.begin() + static_cast<long>(i));
      }
    }
    if (p.base >= total_chunks_) {
      // Fully delivered: poll for the load outcome (first poll after a grace
      // period that covers the subscriber's CRC pass + async verify).
      p.state = PeerState::kAwaitStatus;
      p.window.clear();
      p.ctrl_retries = 0;
      p.ctrl_ref = alarm_.Now();
      p.ctrl_dt = kCtrlTimeout;
    }
  }

  void HandleStatus(Peer& p, uint8_t code) {
    if (p.state == PeerState::kConverged || p.state == PeerState::kFailed) {
      return;  // duplicated status for a resolved peer: already in the ledger
    }
    p.last_status = code;
    if (code == OtaWire::kStatusOk) {
      p.state = PeerState::kConverged;
      p.window.clear();
      ++stats_.converged;
      return;
    }
    // Typed rejection (§3.4 stage or image CRC): count it, then either re-push
    // the whole image under a fresh transfer id or spend the last of the budget.
    if (code == OtaWire::kStatusImageCrc) {
      ++stats_.reject_image_crc;
    } else {
      switch (static_cast<LoadError>(code)) {
        case LoadError::kStructural:
        case LoadError::kUnsigned:
          ++stats_.reject_integrity;
          break;
        case LoadError::kAuthenticity:
          ++stats_.reject_authenticity;
          break;
        default:
          ++stats_.reject_other;
          break;
      }
    }
    ++p.image_attempts;
    if (p.image_attempts >= kImageRetryLimit) {
      FailPeer(p);
      return;
    }
    ++stats_.image_repushes;
    BeginTransfer(p, alarm_.Now());
  }

  hil::PacketRadio* radio_;
  VirtualAlarmMux* mux_;
  VirtualAlarm alarm_;
  bool active_ = false;
  bool tx_busy_ = false;
  size_t rr_cursor_ = 0;
  uint8_t next_xfer_ = 1;

  std::vector<uint8_t> image_;
  uint32_t image_crc_ = 0;
  uint16_t total_chunks_ = 0;
  std::vector<Peer> peers_;
  OtaGatewayStats stats_;

  std::array<uint8_t, Radio::kMaxPacket> tx_buf_{};
  std::array<uint8_t, Radio::kMaxPacket> rx_buf_{};
};

}  // namespace tock

#endif  // TOCK_CAPSULE_OTA_GATEWAY_H_
