// The unit of transfer in the simulator: an immutable Ethernet frame plus
// simulation metadata.
//
// Packets are shared immutably (`PacketPtr`) so that multicast fan-out
// through switches does not copy payload bytes — mirroring how a real switch
// replicates a frame by reference until egress.
//
// Parse once: a Packet decodes its headers when it is built. `eth()` and
// `decoded()` hold exactly what `EthernetHeader::decode` and `decode_frame`
// return on the same bytes, so every hop (NIC filter, switch lookup, stack
// demux) reads fields instead of re-parsing bytes that never change.
//
// Hot-path memory model: the paper's workloads are tiny frames at extreme
// rates (26 B new-order / 14 B cancel, ≥500k events/s — PAPER §3, Table 1),
// so frames up to `Packet::kInlineCapacity` live inside the Packet object
// itself, and each `PacketFactory` recycles Packet-sized blocks through its
// own intrusive freelist. Once warm, a make → fan-out → drop cycle performs
// zero heap allocations; only MTU-scale frames (PITCH unit batches) fall
// back to heap payload storage.
//
// `PacketPtr` is an 8-byte intrusive handle with a non-atomic reference
// count. That is sound because a packet never leaves the shard that made
// it: net/bridge.hpp copies the bytes of every frame crossing a shard and
// rebuilds it in the destination shard's factory. A block returns to the
// freelist only when the last handle drops, so a recycled frame can never
// alias through a still-held pointer; the pool itself lives until its
// factory and every packet it made are gone.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/check.hpp"
#include "net/headers.hpp"
#include "sim/time.hpp"
#include "telemetry/trace.hpp"

namespace tsn::net {

// Per-frame Ethernet wire overhead that never appears in the frame buffer:
// preamble + start-of-frame delimiter, and the inter-packet gap. Shared by
// Packet::wire_bytes(), the link serialization model, and the analytical
// latency model so they can never disagree.
inline constexpr std::size_t kPreambleSfdBytes = 8;
inline constexpr std::size_t kInterPacketGapBytes = 12;
inline constexpr std::size_t kWireOverheadBytes = kPreambleSfdBytes + kInterPacketGapBytes;

class PacketPtr;
namespace detail {
class PacketPool;
}  // namespace detail

class Packet {
 public:
  // Covers every PITCH/BOE message frame in the paper's Table 1 (14–42 B
  // payloads; full frames stay ≤ 64 B only for the compressed/L1 formats,
  // so this is sized to the common small-control/market-message case).
  static constexpr std::size_t kInlineCapacity = 64;

  // Pinned in place: `decoded()->payload` points into this object's bytes.
  Packet(const Packet&) = delete;
  Packet& operator=(const Packet&) = delete;

  [[nodiscard]] std::span<const std::byte> frame() const noexcept {
    return inline_stored_ ? std::span<const std::byte>{inline_frame_.data(), size_}
                          : std::span<const std::byte>{heap_frame_};
  }
  [[nodiscard]] std::size_t size_bytes() const noexcept { return size_; }
  // On-the-wire size including preamble + SFD and inter-packet gap, which is
  // what serialization delay must account for.
  [[nodiscard]] std::size_t wire_bytes() const noexcept { return size_ + kWireOverheadBytes; }
  // True when the frame lives inside the Packet object (no heap payload).
  [[nodiscard]] bool inline_stored() const noexcept { return inline_stored_; }

  // The Ethernet header, or nullopt for a frame shorter than one.
  [[nodiscard]] const std::optional<EthernetHeader>& eth() const noexcept { return eth_; }
  // The full decode (`decode_frame` of frame()); `payload` aliases frame().
  [[nodiscard]] const std::optional<DecodedFrame>& decoded() const noexcept { return decoded_; }

  // Origin timestamp: when the sender handed the frame to its NIC.
  [[nodiscard]] sim::Time created() const noexcept { return created_; }
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  // Telemetry trace this frame belongs to (0 = untraced). Rewritten copies
  // of a frame (switch MAC rewrite, protocol relays) must carry it forward.
  [[nodiscard]] telemetry::TraceId trace() const noexcept { return trace_; }

 private:
  friend class PacketPtr;
  friend class detail::PacketPool;

  // Small frames are copied into inline storage; large ones keep the
  // vector's buffer (zero copy).
  // tsn-lint: hotpath
  Packet(std::vector<std::byte>&& frame, sim::Time created, std::uint64_t id,
         telemetry::TraceId trace) noexcept
      : created_(created), id_(id), trace_(trace), size_(static_cast<std::uint32_t>(frame.size())) {
    if (frame.size() <= kInlineCapacity) {
      // Bounds-checked by the branch above (size <= kInlineCapacity).
      if (!frame.empty()) std::memcpy(inline_frame_.data(), frame.data(), frame.size());  // tsn-lint: allow(raw-memcpy)
    } else {
      heap_frame_ = std::move(frame);
      inline_stored_ = false;
    }
    parse();
  }

  // Inline-only: PacketPool routes larger spans through the vector form.
  // tsn-lint: hotpath
  Packet(std::span<const std::byte> frame, sim::Time created, std::uint64_t id,
         telemetry::TraceId trace) noexcept
      : created_(created), id_(id), trace_(trace), size_(static_cast<std::uint32_t>(frame.size())) {
    TSN_DCHECK(frame.size() <= kInlineCapacity, "span-built packets must fit inline");
    // Bounds-checked by the DCHECK above and PacketPool::make's dispatch.
    if (!frame.empty()) std::memcpy(inline_frame_.data(), frame.data(), frame.size());  // tsn-lint: allow(raw-memcpy)
    parse();
  }

  // tsn-lint: hotpath
  void parse() noexcept {
    decoded_ = decode_frame(frame());
    if (decoded_) {
      eth_ = decoded_->eth;
    } else {
      WireReader r{frame()};
      eth_ = EthernetHeader::decode(r);
    }
  }

  std::vector<std::byte> heap_frame_;  // empty when inline_stored_
  std::array<std::byte, kInlineCapacity> inline_frame_;
  std::optional<EthernetHeader> eth_;
  std::optional<DecodedFrame> decoded_;
  sim::Time created_;
  std::uint64_t id_;
  telemetry::TraceId trace_ = 0;
  std::uint32_t size_ = 0;
  std::uint32_t refs_ = 0;  // live PacketPtr handles
  bool inline_stored_ = true;
  detail::PacketPool* pool_ = nullptr;  // recycles this block
};

// Shared, immutable, single-shard handle to a pooled Packet.
class PacketPtr {
 public:
  PacketPtr() noexcept = default;
  PacketPtr(const PacketPtr& other) noexcept : packet_(other.packet_) {
    if (packet_ != nullptr) ++packet_->refs_;
  }
  PacketPtr(PacketPtr&& other) noexcept : packet_(std::exchange(other.packet_, nullptr)) {}
  PacketPtr& operator=(PacketPtr other) noexcept {
    std::swap(packet_, other.packet_);
    return *this;
  }
  ~PacketPtr() { reset(); }

  // Drops this handle; the last one recycles the packet's block.
  inline void reset() noexcept;

  const Packet* operator->() const noexcept { return packet_; }
  explicit operator bool() const noexcept { return packet_ != nullptr; }

 private:
  friend class detail::PacketPool;
  explicit PacketPtr(Packet* packet) noexcept : packet_(packet) { ++packet_->refs_; }

  Packet* packet_ = nullptr;
};

namespace detail {

// Freelist of Packet-sized blocks behind one PacketFactory. The pool is
// reference-counted (non-atomically) by its factory and by every live
// packet it made, so packets may outlive the factory that built them.
// Single-threaded by design, like every shard of the simulator.
class PacketPool {
 public:
  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  // tsn-lint: hotpath
  [[nodiscard]] PacketPtr make(std::vector<std::byte>&& frame, sim::Time created,
                               std::uint64_t id, telemetry::TraceId trace) {
    return adopt(new (acquire()) Packet(std::move(frame), created, id, trace));
  }
  // tsn-lint: hotpath
  [[nodiscard]] PacketPtr make(std::span<const std::byte> frame, sim::Time created,
                               std::uint64_t id, telemetry::TraceId trace) {
    if (frame.size() > Packet::kInlineCapacity) {
      // tsn-lint: allow(hotpath-alloc) MTU-scale frames only: their payload lives on the heap
      return make(std::vector<std::byte>(frame.begin(), frame.end()), created, id, trace);
    }
    return adopt(new (acquire()) Packet(frame, created, id, trace));
  }

  // Returns a dead packet's block to the freelist.
  // tsn-lint: hotpath
  void recycle(Packet* packet) noexcept {
    packet->~Packet();
    free_ = new (static_cast<void*>(packet)) FreeBlock{free_};
    unref();
  }

  // Grows the freelist until `packets` blocks exist in total.
  void reserve(std::size_t packets) {
    while (allocated_ < packets) free_ = new (fresh_block()) FreeBlock{free_};
  }

  // Drops one owner reference (the factory's or a packet's).
  // tsn-lint: hotpath
  void unref() noexcept {
    // tsn-lint: allow(hotpath-alloc) teardown only: the factory and every packet are gone
    if (--refs_ == 0) delete this;
  }

  [[nodiscard]] std::uint64_t blocks_allocated() const noexcept { return allocated_; }
  [[nodiscard]] std::uint64_t blocks_reused() const noexcept { return reused_; }

 private:
  struct FreeBlock {
    FreeBlock* next;
  };
  static_assert(alignof(Packet) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  static_assert(sizeof(Packet) >= sizeof(FreeBlock));

  ~PacketPool() {
    while (free_ != nullptr) {
      FreeBlock* next = free_->next;
      ::operator delete(static_cast<void*>(free_));
      free_ = next;
    }
  }

  // tsn-lint: hotpath
  [[nodiscard]] void* acquire() {
    if (free_ == nullptr) return fresh_block();
    FreeBlock* block = free_;
    free_ = block->next;
    ++reused_;
    return block;
  }

  // tsn-lint: hotpath
  [[nodiscard]] void* fresh_block() {
    ++allocated_;
    // tsn-lint: allow(hotpath-alloc) cold-start growth: never taken once the pool is warm
    return ::operator new(sizeof(Packet));
  }

  // tsn-lint: hotpath
  [[nodiscard]] PacketPtr adopt(Packet* packet) noexcept {
    packet->pool_ = this;
    ++refs_;
    return PacketPtr{packet};
  }

  FreeBlock* free_ = nullptr;
  std::uint64_t allocated_ = 0;
  std::uint64_t reused_ = 0;
  std::uint64_t refs_ = 1;  // the owning factory
};

}  // namespace detail

inline void PacketPtr::reset() noexcept {
  if (packet_ != nullptr && --packet_->refs_ == 0) packet_->pool_->recycle(packet_);
  packet_ = nullptr;
}

// Process-wide monotonic packet ids; simulation determinism does not depend
// on ids, only uniqueness within a run. Packets are carved out of a
// per-factory freelist pool; see the file header for the recycling contract.
class PacketFactory {
 public:
  PacketFactory() = default;
  PacketFactory(const PacketFactory&) = delete;
  PacketFactory& operator=(const PacketFactory&) = delete;
  ~PacketFactory() { pool_->unref(); }

  // New frames are stamped with the ambient trace id, so a packet sent from
  // inside a TraceScope joins that scope's trace with no per-call plumbing.
  // tsn-lint: hotpath
  [[nodiscard]] PacketPtr make(std::vector<std::byte> frame, sim::Time created) {
    return pool_->make(std::move(frame), created, next_id_++, telemetry::current_trace());
  }
  // tsn-lint: hotpath
  [[nodiscard]] PacketPtr make(std::span<const std::byte> frame, sim::Time created) {
    return pool_->make(frame, created, next_id_++, telemetry::current_trace());
  }

  // Rewritten copy of an existing frame (e.g. a switch's last-hop MAC
  // rewrite): keeps the original id/timestamp/trace — it is the same frame
  // on the wire.
  // tsn-lint: hotpath
  [[nodiscard]] PacketPtr remake(std::span<const std::byte> frame, sim::Time created,
                                 std::uint64_t id, telemetry::TraceId trace) {
    return pool_->make(frame, created, id, trace);
  }

  // Pre-warms the freelist to at least `packets` blocks.
  void reserve(std::size_t packets) { pool_->reserve(packets); }

  [[nodiscard]] std::uint64_t pool_blocks_allocated() const noexcept {
    return pool_->blocks_allocated();
  }
  [[nodiscard]] std::uint64_t pool_blocks_reused() const noexcept {
    return pool_->blocks_reused();
  }

 private:
  std::uint64_t next_id_ = 1;
  detail::PacketPool* pool_ = new detail::PacketPool;
};

}  // namespace tsn::net
