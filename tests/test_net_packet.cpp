#include "net/packet.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <numeric>
#include <span>
#include <vector>

#include "mcast/igmp.hpp"
#include "net/headers.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace tsn::net {
namespace {

std::vector<std::byte> pattern_frame(std::size_t size) {
  std::vector<std::byte> frame(size);
  for (std::size_t i = 0; i < size; ++i) frame[i] = static_cast<std::byte>(i & 0xff);
  return frame;
}

TEST(Packet, SmallFramesAreStoredInline) {
  PacketFactory factory;
  const auto bytes = pattern_frame(26);  // Table 1 new-order message
  const auto packet = factory.make(std::span<const std::byte>{bytes}, sim::Time{5});
  EXPECT_TRUE(packet->inline_stored());
  EXPECT_EQ(packet->size_bytes(), 26u);
  ASSERT_EQ(packet->frame().size(), 26u);
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), packet->frame().begin()));
}

TEST(Packet, LargeFramesFallBackToHeapStorage) {
  PacketFactory factory;
  const auto bytes = pattern_frame(1'458);  // PITCH unit batch MTU frame
  const auto packet = factory.make(std::span<const std::byte>{bytes}, sim::Time{5});
  EXPECT_FALSE(packet->inline_stored());
  EXPECT_EQ(packet->size_bytes(), 1'458u);
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), packet->frame().begin()));
}

TEST(Packet, InlineBoundaryIsExactlyInlineCapacity) {
  PacketFactory factory;
  const auto at = factory.make(std::span<const std::byte>{pattern_frame(Packet::kInlineCapacity)},
                               sim::Time{});
  const auto over = factory.make(
      std::span<const std::byte>{pattern_frame(Packet::kInlineCapacity + 1)}, sim::Time{});
  EXPECT_TRUE(at->inline_stored());
  EXPECT_FALSE(over->inline_stored());
}

TEST(Packet, VectorConstructorStillWorksForBothSizes) {
  PacketFactory factory;
  const auto small = factory.make(pattern_frame(14), sim::Time{1});  // cancel message
  const auto large = factory.make(pattern_frame(512), sim::Time{1});
  EXPECT_TRUE(small->inline_stored());
  EXPECT_FALSE(large->inline_stored());
  EXPECT_EQ(small->size_bytes(), 14u);
  EXPECT_EQ(large->size_bytes(), 512u);
}

TEST(Packet, WireBytesAddsPreambleSfdAndIpg) {
  PacketFactory factory;
  const auto packet = factory.make(pattern_frame(64), sim::Time{});
  EXPECT_EQ(kPreambleSfdBytes, 8u);
  EXPECT_EQ(kInterPacketGapBytes, 12u);
  EXPECT_EQ(packet->wire_bytes(), 64u + kPreambleSfdBytes + kInterPacketGapBytes);
}

TEST(PacketFactory, IdsAreUniqueAndMonotonic) {
  PacketFactory factory;
  const auto a = factory.make(pattern_frame(8), sim::Time{});
  const auto b = factory.make(pattern_frame(8), sim::Time{});
  EXPECT_LT(a->id(), b->id());
}

TEST(PacketFactory, RecyclesBlocksOnceReleased) {
  PacketFactory factory;
  const auto frame = pattern_frame(26);
  {
    auto p = factory.make(std::span<const std::byte>{frame}, sim::Time{});
    EXPECT_EQ(factory.pool_blocks_reused(), 0u);
  }
  const auto allocated = factory.pool_blocks_allocated();
  for (int i = 0; i < 100; ++i) {
    auto p = factory.make(std::span<const std::byte>{frame}, sim::Time{});
  }
  EXPECT_EQ(factory.pool_blocks_allocated(), allocated) << "make/drop cycles must reuse blocks";
  EXPECT_GE(factory.pool_blocks_reused(), 100u);
}

TEST(PacketFactory, RecycledFrameIsNotVisibleThroughHeldPointer) {
  // The aliasing contract: a still-held PacketPtr pins its block, so frame
  // recycling can never rewrite bytes under a live reader — even after the
  // factory has churned through many pooled packets.
  PacketFactory factory;
  const auto original = pattern_frame(26);
  PacketPtr held = factory.make(std::span<const std::byte>{original}, sim::Time{9});
  for (int i = 0; i < 1'000; ++i) {
    auto churn = factory.make(std::span<const std::byte>{pattern_frame(26)}, sim::Time{10});
  }
  ASSERT_EQ(held->frame().size(), original.size());
  EXPECT_TRUE(std::equal(original.begin(), original.end(), held->frame().begin()));
  EXPECT_EQ(held->created(), sim::Time{9});
}

TEST(PacketFactory, HeldPointerKeepsPoolAliveAfterFactoryDies) {
  PacketPtr survivor;
  {
    PacketFactory factory;
    survivor = factory.make(pattern_frame(26), sim::Time{3});
  }
  // The pooled block's allocator copy keeps the pool alive; releasing the
  // last reference after the factory is gone must be safe.
  EXPECT_EQ(survivor->size_bytes(), 26u);
  survivor.reset();
  EXPECT_FALSE(survivor);
}

TEST(PacketFactory, RemakePreservesIdentity) {
  PacketFactory factory;
  const auto frame = pattern_frame(40);
  auto rewritten = pattern_frame(40);
  rewritten[0] = std::byte{0xaa};
  const auto out =
      factory.remake(std::span<const std::byte>{rewritten}, sim::Time{7}, 1234, 99);
  EXPECT_EQ(out->id(), 1234u);
  EXPECT_EQ(out->trace(), 99u);
  EXPECT_EQ(out->created(), sim::Time{7});
  EXPECT_EQ(out->frame()[0], std::byte{0xaa});
}

TEST(PacketFactory, ReservePrewarmsFreelist) {
  PacketFactory factory;
  factory.reserve(64);
  const auto allocated = factory.pool_blocks_allocated();
  EXPECT_GE(allocated, 64u);
  std::vector<PacketPtr> live;
  for (int i = 0; i < 64; ++i) live.push_back(factory.make(pattern_frame(8), sim::Time{}));
  EXPECT_EQ(factory.pool_blocks_allocated(), allocated);
}

// --- parse once: Packet::eth()/decoded() vs the standalone decoders -------

// Field-by-field comparison of a packet's construction-time parse with
// EthernetHeader::decode / decode_frame run on the same bytes.
void expect_parse_matches(const PacketPtr& packet, std::span<const std::byte> bytes) {
  WireReader r{bytes};
  const auto eth = EthernetHeader::decode(r);
  ASSERT_EQ(packet->eth().has_value(), eth.has_value());
  if (eth) {
    EXPECT_EQ(packet->eth()->dst, eth->dst);
    EXPECT_EQ(packet->eth()->src, eth->src);
    EXPECT_EQ(packet->eth()->ethertype, eth->ethertype);
  }
  const auto ref = decode_frame(bytes);
  const auto& got = packet->decoded();
  ASSERT_EQ(got.has_value(), ref.has_value());
  if (!ref) return;
  EXPECT_EQ(got->eth.dst, ref->eth.dst);
  EXPECT_EQ(got->eth.src, ref->eth.src);
  EXPECT_EQ(got->eth.ethertype, ref->eth.ethertype);
  ASSERT_EQ(got->ip.has_value(), ref->ip.has_value());
  if (ref->ip) {
    EXPECT_EQ(got->ip->dscp, ref->ip->dscp);
    EXPECT_EQ(got->ip->total_length, ref->ip->total_length);
    EXPECT_EQ(got->ip->identification, ref->ip->identification);
    EXPECT_EQ(got->ip->ttl, ref->ip->ttl);
    EXPECT_EQ(got->ip->protocol, ref->ip->protocol);
    EXPECT_EQ(got->ip->checksum, ref->ip->checksum);
    EXPECT_EQ(got->ip->src, ref->ip->src);
    EXPECT_EQ(got->ip->dst, ref->ip->dst);
  }
  ASSERT_EQ(got->udp.has_value(), ref->udp.has_value());
  if (ref->udp) {
    EXPECT_EQ(got->udp->src_port, ref->udp->src_port);
    EXPECT_EQ(got->udp->dst_port, ref->udp->dst_port);
    EXPECT_EQ(got->udp->length, ref->udp->length);
  }
  ASSERT_EQ(got->tcp.has_value(), ref->tcp.has_value());
  if (ref->tcp) {
    EXPECT_EQ(got->tcp->src_port, ref->tcp->src_port);
    EXPECT_EQ(got->tcp->dst_port, ref->tcp->dst_port);
    EXPECT_EQ(got->tcp->seq, ref->tcp->seq);
    EXPECT_EQ(got->tcp->ack, ref->tcp->ack);
    EXPECT_EQ(got->tcp->flags, ref->tcp->flags);
    EXPECT_EQ(got->tcp->window, ref->tcp->window);
  }
  // Same slice of the frame, and that slice is the packet's own bytes.
  const std::span<const std::byte> own = packet->frame();
  ASSERT_EQ(got->payload.size(), ref->payload.size());
  EXPECT_EQ(got->payload.data() - own.data(), ref->payload.data() - bytes.data());
  EXPECT_GE(got->payload.data(), own.data());
  EXPECT_LE(got->payload.data() + got->payload.size(), own.data() + own.size());
  EXPECT_TRUE(std::equal(got->payload.begin(), got->payload.end(), ref->payload.begin()));
}

// Builds the packet both ways (span copy and vector move) and compares.
void expect_both_constructors_match(PacketFactory& factory, const std::vector<std::byte>& bytes) {
  expect_parse_matches(factory.make(std::span<const std::byte>{bytes}, sim::Time{}), bytes);
  expect_parse_matches(factory.make(std::vector<std::byte>{bytes}, sim::Time{}), bytes);
  expect_parse_matches(factory.remake(bytes, sim::Time{}, 1, 0), bytes);
}

// One valid frame of every shape the simulator carries.
std::vector<std::vector<std::byte>> corpus() {
  const MacAddr a = MacAddr::from_host_id(1);
  const MacAddr b = MacAddr::from_host_id(2);
  const Ipv4Addr ip_a{10, 0, 0, 1};
  const Ipv4Addr ip_b{10, 0, 0, 2};
  TcpHeader syn;
  syn.src_port = 40'000;
  syn.dst_port = 9'000;
  syn.seq = 0x01020304;
  syn.flags = TcpHeader::kSyn;
  TcpHeader data = syn;
  data.ack = 0x0a0b0c0d;
  data.flags = TcpHeader::kAck | TcpHeader::kPsh;
  data.window = 1'024;
  std::vector<std::byte> non_ip = build_udp_frame(a, b, ip_a, ip_b, 1, 2, pattern_frame(30));
  non_ip[12] = std::byte{0x86};  // EtherType IPv6: decoded as L2 only
  non_ip[13] = std::byte{0xdd};
  return {
      build_udp_frame(a, b, ip_a, ip_b, 6'000, 7'000, pattern_frame(18)),   // 64 B: inline
      build_udp_frame(a, b, ip_a, ip_b, 6'000, 7'000, pattern_frame(200)),  // heap
      build_multicast_frame(a, ip_a, Ipv4Addr{239, 1, 2, 3}, 30'001, pattern_frame(40)),
      build_tcp_frame(a, b, ip_a, ip_b, syn, {}),
      build_tcp_frame(a, b, ip_a, ip_b, data, pattern_frame(26)),
      build_tcp_frame(a, b, ip_a, ip_b, data, pattern_frame(300)),
      mcast::build_igmp_frame(a, ip_a,
                              mcast::IgmpMessage{mcast::IgmpType::kMembershipReport,
                                                 Ipv4Addr{239, 1, 2, 3}}),
      non_ip,
      pattern_frame(13),  // shorter than an Ethernet header
      {},
  };
}

TEST(PacketParseOnce, ValidFramesMatchStandaloneDecoders) {
  PacketFactory factory;
  const auto frames = corpus();
  for (std::size_t i = 0; i < frames.size(); ++i) {
    SCOPED_TRACE(i);
    expect_both_constructors_match(factory, frames[i]);
  }
  // The corpus really covers both storage modes and every L4 branch.
  const auto udp_large = factory.make(std::span<const std::byte>{frames[1]}, sim::Time{});
  EXPECT_FALSE(udp_large->inline_stored());
  ASSERT_TRUE(udp_large->decoded() && udp_large->decoded()->is_udp());
  const auto igmp = factory.make(std::span<const std::byte>{frames[6]}, sim::Time{});
  ASSERT_TRUE(igmp->decoded() && igmp->decoded()->ip);
  EXPECT_EQ(igmp->decoded()->ip->protocol, kIpProtoIgmp);
  const auto non_ip = factory.make(std::span<const std::byte>{frames[7]}, sim::Time{});
  ASSERT_TRUE(non_ip->decoded());
  EXPECT_FALSE(non_ip->decoded()->ip);
}

TEST(PacketParseOnce, TruncatedPrefixesMatchStandaloneDecoders) {
  PacketFactory factory;
  for (const auto& frame : corpus()) {
    for (std::size_t len = 0; len <= frame.size(); ++len) {
      SCOPED_TRACE(len);
      expect_both_constructors_match(
          factory, std::vector<std::byte>{frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(len)});
    }
  }
}

TEST(PacketParseOnce, BitFlipsMatchStandaloneDecoders) {
  PacketFactory factory;
  sim::Rng rng{0x9a75e};
  const auto frames = corpus();
  for (int round = 0; round < 2'000; ++round) {
    auto mutated = frames[rng.next_below(frames.size() - 2)];  // skip the empty/short ones
    const auto flips = 1 + rng.next_below(4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      mutated[rng.next_below(mutated.size())] ^= static_cast<std::byte>(1 << rng.next_below(8));
    }
    expect_both_constructors_match(factory, mutated);
  }
}

TEST(PacketParseOnce, BadIpv4ChecksumKeepsEthernetOnly) {
  PacketFactory factory;
  auto frame = corpus()[0];
  frame[kEthernetHeaderSize + 10] ^= std::byte{0xff};  // IPv4 header checksum
  expect_both_constructors_match(factory, frame);
  const auto packet = factory.make(std::span<const std::byte>{frame}, sim::Time{});
  EXPECT_TRUE(packet->eth().has_value());
  EXPECT_FALSE(packet->decoded().has_value());
}

}  // namespace
}  // namespace tsn::net
