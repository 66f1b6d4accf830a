// cmtos/tests/fuzz_pdu.cpp
//
// Deterministic structure-aware PDU fuzzer (DESIGN.md §14).  For every PDU
// family it generates valid encodings from randomized fields, mutates them
// (truncate / bit-flip / splice / field-stomp, with and without a CRC
// fix-up so the structural validation paths past the checksum also get
// exercised), and feeds the result to the decoder.  The oracles:
//
//   1. No crash / no UB — run under ASan+UBSan in CI's fuzz-smoke job.
//   2. Refusal is fine; acceptance must be a fixpoint:
//      e1 = encode(decode(x)); decode(e1) must succeed and re-encode
//      byte-identically to e1.
//
// Fully deterministic: same --seed, same sequence, everywhere.  A committed
// regression corpus (tests/fuzz_corpus/) replays first so past refusal bugs
// stay fixed.
//
// Usage: fuzz_pdu [--seed N] [--iters N] [--corpus DIR]
//        CMTOS_FUZZ_SEED / CMTOS_FUZZ_ITERS env vars override defaults.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/packet.h"
#include "orch/opdu.h"
#include "transport/tpdu.h"
#include "util/checksum.h"
#include "util/frame_pool.h"
#include "util/rng.h"

namespace {

using cmtos::Rng;
using cmtos::WireFault;
using cmtos::orch::Opdu;
using cmtos::orch::OpduType;
using cmtos::transport::AckTpdu;
using cmtos::transport::ControlTpdu;
using cmtos::transport::DataTpdu;
using cmtos::transport::DatagramTpdu;
using cmtos::transport::FeedbackTpdu;
using cmtos::transport::KeepaliveTpdu;
using cmtos::transport::NakTpdu;
using cmtos::transport::TpduType;

using Bytes = std::vector<std::uint8_t>;
using cmtos::transport::kDtPacketHeaderBytes;

// ====================================================================
// DataTpdu travels as a packet: header bytes plus a detached frame.  As a
// byte string it is the header followed by the frame; any input splits
// back into a packet at kDtPacketHeaderBytes (shorter inputs are all
// header, with an empty frame).
// ====================================================================

Bytes dt_wire(const DataTpdu& t) {
  cmtos::net::Packet pkt;
  t.encode_onto(pkt);
  Bytes out = pkt.payload;
  out.insert(out.end(), pkt.frame.data(), pkt.frame.data() + pkt.frame.size());
  return out;
}

cmtos::net::Packet dt_packet(std::span<const std::uint8_t> wire) {
  const std::size_t cut = std::min(wire.size(), kDtPacketHeaderBytes);
  cmtos::net::Packet pkt;
  pkt.payload.assign(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(cut));
  pkt.frame = cmtos::PayloadView::adopt(Bytes(wire.begin() + static_cast<std::ptrdiff_t>(cut),
                                               wire.end()));
  return pkt;
}

// ====================================================================
// Seed generators: valid encodings with randomized field values.
// ====================================================================

Bytes gen_control(Rng& rng) {
  ControlTpdu t;
  t.type = static_cast<TpduType>(rng.uniform(1, 10));
  t.vc = static_cast<std::uint32_t>(rng.next_u64());
  t.initiator = {static_cast<std::uint32_t>(rng.uniform(0, 100)),
                 static_cast<std::uint16_t>(rng.uniform(0, 999))};
  t.src = {static_cast<std::uint32_t>(rng.uniform(0, 100)),
           static_cast<std::uint16_t>(rng.uniform(0, 999))};
  t.dst = {static_cast<std::uint32_t>(rng.uniform(0, 100)),
           static_cast<std::uint16_t>(rng.uniform(0, 999))};
  t.sample_period = rng.uniform(0, 1'000'000'000);
  t.buffer_osdus = static_cast<std::uint32_t>(rng.uniform(0, 1024));
  t.importance = static_cast<std::uint8_t>(rng.uniform(0, 255));
  t.shed_watermark_pct = static_cast<std::uint8_t>(rng.uniform(0, 100));
  t.pacing_burst = static_cast<std::uint16_t>(rng.uniform(1, 64));
  t.reason = static_cast<std::uint8_t>(rng.uniform(0, 11));
  t.accepted = static_cast<std::uint8_t>(rng.uniform(0, 1));
  return t.encode();
}

Bytes gen_data(Rng& rng) {
  DataTpdu t;
  t.vc = static_cast<std::uint32_t>(rng.next_u64());
  t.tpdu_seq = static_cast<std::uint32_t>(rng.next_u64());
  t.osdu_seq = static_cast<std::uint32_t>(rng.next_u64());
  t.event = rng.next_u64();
  t.frag_index = static_cast<std::uint16_t>(rng.uniform(0, 64));
  t.frag_count = static_cast<std::uint16_t>(rng.uniform(1, 64));
  t.flags = static_cast<std::uint8_t>(rng.uniform(0, 1));
  t.src_timestamp = rng.uniform(0, 1'000'000'000);
  Bytes payload(static_cast<std::size_t>(rng.uniform(0, 64)));
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
  t.payload = cmtos::PayloadView::adopt(std::move(payload));
  return dt_wire(t);
}

Bytes gen_ack(Rng& rng) {
  AckTpdu t;
  t.vc = static_cast<std::uint32_t>(rng.next_u64());
  t.cumulative_ack = static_cast<std::uint32_t>(rng.next_u64());
  t.window = static_cast<std::uint32_t>(rng.uniform(0, 4096));
  return t.encode();
}

Bytes gen_nak(Rng& rng) {
  NakTpdu t;
  t.vc = static_cast<std::uint32_t>(rng.next_u64());
  const auto n = static_cast<std::size_t>(rng.uniform(0, 32));
  for (std::size_t i = 0; i < n; ++i)
    t.missing.push_back(static_cast<std::uint32_t>(rng.next_u64()));
  return t.encode();
}

Bytes gen_fb(Rng& rng) {
  FeedbackTpdu t;
  t.vc = static_cast<std::uint32_t>(rng.next_u64());
  t.free_slots = static_cast<std::uint32_t>(rng.uniform(0, 4096));
  t.capacity = static_cast<std::uint32_t>(rng.uniform(0, 4096));
  t.highest_osdu = static_cast<std::uint32_t>(rng.next_u64());
  t.paused = static_cast<std::uint8_t>(rng.uniform(0, 1));
  return t.encode();
}

Bytes gen_ka(Rng& rng) {
  KeepaliveTpdu t;
  t.vc = static_cast<std::uint32_t>(rng.next_u64());
  return t.encode();
}

Bytes gen_dg(Rng& rng) {
  DatagramTpdu t;
  t.src = {static_cast<std::uint32_t>(rng.uniform(0, 100)),
           static_cast<std::uint16_t>(rng.uniform(0, 999))};
  t.dst_tsap = static_cast<std::uint16_t>(rng.uniform(0, 999));
  t.payload.resize(static_cast<std::size_t>(rng.uniform(0, 64)));
  for (auto& b : t.payload) b = static_cast<std::uint8_t>(rng.next_u64());
  return t.encode();
}

Bytes gen_opdu(Rng& rng) {
  static constexpr OpduType kTypes[] = {
      OpduType::kSessReq, OpduType::kSessAck, OpduType::kSessRel, OpduType::kPrime,
      OpduType::kPrimeAck, OpduType::kPrimed, OpduType::kStart, OpduType::kStartAck,
      OpduType::kStop, OpduType::kStopAck, OpduType::kAdd, OpduType::kAddAck,
      OpduType::kRemove, OpduType::kRemoveAck, OpduType::kRegulateSink,
      OpduType::kRegulateSrc, OpduType::kDrop, OpduType::kRegInd, OpduType::kSrcStats,
      OpduType::kEventReg, OpduType::kEventInd, OpduType::kDelayed, OpduType::kDelayedAck,
      OpduType::kVcDead, OpduType::kTimeReq, OpduType::kTimeResp, OpduType::kEpochNack};
  Opdu o;
  o.type = kTypes[static_cast<std::size_t>(
      rng.uniform(0, static_cast<std::int64_t>(std::size(kTypes)) - 1))];
  o.session = rng.next_u64();
  o.vc = static_cast<std::uint32_t>(rng.next_u64());
  o.orch_node = static_cast<std::uint32_t>(rng.uniform(0, 100));
  o.epoch = static_cast<std::uint32_t>(rng.uniform(1, 1000));
  const auto n = static_cast<std::size_t>(rng.uniform(0, 8));
  for (std::size_t i = 0; i < n; ++i)
    o.vcs.push_back({static_cast<std::uint32_t>(rng.next_u64()),
                     static_cast<std::uint32_t>(rng.uniform(0, 100)),
                     static_cast<std::uint32_t>(rng.uniform(0, 100))});
  o.flags = static_cast<std::uint8_t>(rng.uniform(0, 7));
  o.ok = static_cast<std::uint8_t>(rng.uniform(0, 1));
  o.reason = static_cast<cmtos::orch::OrchReason>(rng.uniform(0, 11));
  o.target_seq = static_cast<std::int64_t>(rng.next_u64());
  o.max_drop = static_cast<std::uint32_t>(rng.uniform(0, 100));
  o.interval = rng.uniform(0, 1'000'000'000);
  o.interval_id = static_cast<std::uint32_t>(rng.next_u64());
  o.pattern = rng.next_u64();
  o.mask = rng.next_u64();
  o.event_value = rng.next_u64();
  o.osdu_seq = static_cast<std::uint32_t>(rng.next_u64());
  o.t_origin = rng.uniform(0, 1'000'000'000);
  o.t_peer = rng.uniform(0, 1'000'000'000);
  o.probe_id = static_cast<std::uint32_t>(rng.next_u64());
  return o.encode();
}

// ====================================================================
// Family table: generator + decode/re-encode fixpoint check.
// ====================================================================

// Decodes `wire`; on acceptance runs the fixpoint oracle and returns false
// on any violation.  Each family instantiates this for its own types.
template <typename Pdu>
bool fixpoint(std::span<const std::uint8_t> wire, const char* family) {
  WireFault fault = WireFault::kNone;
  auto d1 = Pdu::decode(wire, &fault);
  if (!d1) return true;  // refusal is always acceptable
  const Bytes e1 = d1->encode();
  auto d2 = Pdu::decode(e1, &fault);
  if (!d2) {
    std::fprintf(stderr, "FUZZ VIOLATION [%s]: re-decode of accepted input failed (%s)\n",
                 family, to_string(fault));
    return false;
  }
  if (d2->encode() != e1) {
    std::fprintf(stderr, "FUZZ VIOLATION [%s]: encode(decode(x)) is not a fixpoint\n",
                 family);
    return false;
  }
  return true;
}

// The packet-path fixpoint: an accepted packet re-encodes to a packet that
// decodes again and re-encodes byte-identically.
bool dt_fixpoint(const cmtos::net::Packet& pkt, const char* family) {
  WireFault fault = WireFault::kNone;
  auto d1 = DataTpdu::decode_packet(pkt, &fault);
  if (!d1) return true;  // refusal is always acceptable
  const Bytes e1 = dt_wire(*d1);
  auto d2 = DataTpdu::decode_packet(dt_packet(e1), &fault);
  if (!d2) {
    std::fprintf(stderr, "FUZZ VIOLATION [%s]: re-decode of accepted input failed (%s)\n",
                 family, to_string(fault));
    return false;
  }
  if (dt_wire(*d2) != e1) {
    std::fprintf(stderr, "FUZZ VIOLATION [%s]: encode(decode(x)) is not a fixpoint\n",
                 family);
    return false;
  }
  return true;
}

bool dt_check(std::span<const std::uint8_t> wire, const char* family) {
  return dt_fixpoint(dt_packet(wire), family);
}

// Re-seals a mutant's checksum so it passes and the structural validation
// behind it gets exercised: the CRC trailer of a flat PDU, or the header
// CRC of a DT packet (the frame-body CRC stays as mutated).
void reseal_trailer(Bytes& x) {
  x.resize(x.size() - 4);
  cmtos::append_crc32(x);
}

void reseal_dt_header(Bytes& x) {
  const std::size_t header = std::min(x.size(), kDtPacketHeaderBytes);
  Bytes sealed(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(header));
  reseal_trailer(sealed);
  std::copy(sealed.begin(), sealed.end(), x.begin());
}

struct Family {
  const char* name;
  Bytes (*gen)(Rng&);
  bool (*check)(std::span<const std::uint8_t>, const char*);
  void (*reseal)(Bytes&);
};

constexpr Family kFamilies[] = {
    {"control_tpdu", gen_control, fixpoint<ControlTpdu>, reseal_trailer},
    {"data_tpdu", gen_data, dt_check, reseal_dt_header},
    {"ack_tpdu", gen_ack, fixpoint<AckTpdu>, reseal_trailer},
    {"nak_tpdu", gen_nak, fixpoint<NakTpdu>, reseal_trailer},
    {"fb_tpdu", gen_fb, fixpoint<FeedbackTpdu>, reseal_trailer},
    {"ka_tpdu", gen_ka, fixpoint<KeepaliveTpdu>, reseal_trailer},
    {"dg_tpdu", gen_dg, fixpoint<DatagramTpdu>, reseal_trailer},
    {"opdu", gen_opdu, fixpoint<Opdu>, reseal_trailer},
};
constexpr std::size_t kFamilyCount = std::size(kFamilies);

// ====================================================================
// Mutators.
// ====================================================================

void mutate(Bytes& x, Rng& rng, const Bytes& donor, void (*reseal)(Bytes&)) {
  const auto kind = rng.uniform(0, 5);
  switch (kind) {
    case 0:  // truncate to a random prefix
      if (!x.empty()) x.resize(static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(x.size()) - 1)));
      break;
    case 1: {  // flip 1-8 random bits
      if (x.empty()) break;
      const auto flips = rng.uniform(1, 8);
      for (std::int64_t i = 0; i < flips; ++i) {
        const auto pos = static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(x.size()) - 1));
        x[pos] ^= static_cast<std::uint8_t>(1u << rng.uniform(0, 7));
      }
      break;
    }
    case 2: {  // splice a chunk of another family's encoding over this one
      if (x.empty() || donor.empty()) break;
      const auto len = static_cast<std::size_t>(
          rng.uniform(1, static_cast<std::int64_t>(std::min(donor.size(), x.size()))));
      const auto src = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(donor.size() - len)));
      const auto dst = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(x.size() - len)));
      std::memcpy(x.data() + dst, donor.data() + src, len);
      break;
    }
    case 3: {  // stomp 1-4 bytes with random values (length fields, enums)
      if (x.empty()) break;
      const auto n = rng.uniform(1, 4);
      for (std::int64_t i = 0; i < n; ++i) {
        const auto pos = static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(x.size()) - 1));
        x[pos] = static_cast<std::uint8_t>(rng.next_u64());
      }
      break;
    }
    case 4: {  // duplicate a chunk of itself (length extension / repetition)
      if (x.empty()) break;
      const auto len = static_cast<std::size_t>(
          rng.uniform(1, static_cast<std::int64_t>(std::min<std::size_t>(x.size(), 16))));
      const auto src = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(x.size() - len)));
      x.insert(x.end(), x.begin() + static_cast<std::ptrdiff_t>(src),
               x.begin() + static_cast<std::ptrdiff_t>(src + len));
      break;
    }
    default:  // replace with short random garbage
      x.resize(static_cast<std::size_t>(rng.uniform(0, 16)));
      for (auto& b : x) b = static_cast<std::uint8_t>(rng.next_u64());
      break;
  }
  // Half the mutants get their checksum re-sealed.
  if (x.size() >= 4 && rng.bernoulli(0.5)) reseal(x);
}

// ====================================================================
// DataTpdu packet path (split header + frame) gets its own fuzz loop.
// ====================================================================

bool fuzz_packet_path(Rng& rng) {
  DataTpdu t;
  t.vc = static_cast<std::uint32_t>(rng.next_u64());
  t.tpdu_seq = static_cast<std::uint32_t>(rng.next_u64());
  t.osdu_seq = static_cast<std::uint32_t>(rng.next_u64());
  t.frag_index = static_cast<std::uint16_t>(rng.uniform(0, 8));
  t.frag_count = static_cast<std::uint16_t>(rng.uniform(1, 8));
  Bytes payload(static_cast<std::size_t>(rng.uniform(0, 64)));
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
  t.payload = cmtos::PayloadView::adopt(std::move(payload));

  cmtos::net::Packet pkt;
  t.encode_onto(pkt);

  switch (rng.uniform(0, 3)) {
    case 0:  // header bit flip
      if (!pkt.payload.empty())
        pkt.payload[static_cast<std::size_t>(rng.uniform(
            0, static_cast<std::int64_t>(pkt.payload.size()) - 1))] ^=
            static_cast<std::uint8_t>(1u << rng.uniform(0, 7));
      break;
    case 1:  // frame truncation
      if (pkt.frame.size() > 0)
        pkt.frame = pkt.frame.subview(
            0, static_cast<std::size_t>(
                   rng.uniform(0, static_cast<std::int64_t>(pkt.frame.size()) - 1)));
      break;
    case 2: {  // frame body flip (private copy, like the link does)
      if (pkt.frame.size() == 0) break;
      Bytes copy(pkt.frame.data(), pkt.frame.data() + pkt.frame.size());
      copy[static_cast<std::size_t>(rng.uniform(
          0, static_cast<std::int64_t>(copy.size()) - 1))] ^=
          static_cast<std::uint8_t>(1u << rng.uniform(0, 7));
      pkt.frame = cmtos::PayloadView::adopt(std::move(copy));
      break;
    }
    default:  // header truncation
      pkt.payload.resize(static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(pkt.payload.size()))));
      break;
  }

  return dt_fixpoint(pkt, "data_tpdu/packet");
}

// ====================================================================
// Corpus replay.
// ====================================================================

bool replay_corpus(const std::string& dir) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(dir)) {
    std::fprintf(stderr, "fuzz_pdu: corpus dir %s missing\n", dir.c_str());
    return false;
  }
  std::size_t files = 0;
  bool ok = true;
  // Sorted for deterministic replay order.
  std::vector<fs::path> paths;
  for (const auto& ent : fs::directory_iterator(dir))
    if (ent.is_regular_file()) paths.push_back(ent.path());
  std::sort(paths.begin(), paths.end());
  for (const auto& path : paths) {
    std::ifstream in(path, std::ios::binary);
    Bytes bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    ++files;
    // Every corpus entry goes through every decoder: a refusal bug in any
    // family must stay fixed regardless of which family it was found in.
    for (const auto& fam : kFamilies)
      if (!fam.check(bytes, fam.name)) {
        std::fprintf(stderr, "fuzz_pdu: corpus file %s violates [%s]\n",
                     path.string().c_str(), fam.name);
        ok = false;
      }
  }
  std::printf("fuzz_pdu: corpus replay: %zu files x %zu decoders\n", files, kFamilyCount);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  std::uint64_t iters = 1'000'000;
  std::string corpus;
  if (const char* env = std::getenv("CMTOS_FUZZ_SEED")) seed = std::strtoull(env, nullptr, 10);
  if (const char* env = std::getenv("CMTOS_FUZZ_ITERS"))
    iters = std::strtoull(env, nullptr, 10);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) seed = std::strtoull(argv[++i], nullptr, 10);
    else if (arg == "--iters" && i + 1 < argc) iters = std::strtoull(argv[++i], nullptr, 10);
    else if (arg == "--corpus" && i + 1 < argc) corpus = argv[++i];
    else {
      std::fprintf(stderr, "usage: fuzz_pdu [--seed N] [--iters N] [--corpus DIR]\n");
      return 2;
    }
  }

  bool ok = true;
  if (!corpus.empty()) ok = replay_corpus(corpus) && ok;

  Rng rng(seed);
  // A standing pool of valid encodings per family: mutation starts from
  // structure, not noise, so the deep decode paths actually get reached.
  std::vector<std::vector<Bytes>> pool(kFamilyCount);
  for (std::size_t f = 0; f < kFamilyCount; ++f)
    for (int i = 0; i < 32; ++i) pool[f].push_back(kFamilies[f].gen(rng));

  std::uint64_t refusals = 0, acceptances = 0, violations = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    const auto f = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(kFamilyCount)));  // == count -> packet path
    if (f == kFamilyCount) {
      if (!fuzz_packet_path(rng)) ++violations;
      continue;
    }
    const auto& fam = kFamilies[f];
    const auto& seeds = pool[f];
    Bytes x = seeds[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(seeds.size()) - 1))];
    // Donor from a random family: cross-family splices masquerade one
    // PDU's bytes as another's.
    const auto df = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(kFamilyCount) - 1));
    const auto& dseeds = pool[df];
    const Bytes& donor = dseeds[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(dseeds.size()) - 1))];
    mutate(x, rng, donor, fam.reseal);
    WireFault fault = WireFault::kNone;
    const bool accepted =
        [&] {
          switch (f) {  // decode once for stats; fixpoint re-decodes on acceptance
            case 0: return ControlTpdu::decode(x, &fault).has_value();
            case 1: return DataTpdu::decode_packet(dt_packet(x), &fault).has_value();
            case 2: return AckTpdu::decode(x, &fault).has_value();
            case 3: return NakTpdu::decode(x, &fault).has_value();
            case 4: return FeedbackTpdu::decode(x, &fault).has_value();
            case 5: return KeepaliveTpdu::decode(x, &fault).has_value();
            case 6: return DatagramTpdu::decode(x, &fault).has_value();
            default: return Opdu::decode(x, &fault).has_value();
          }
        }();
    accepted ? ++acceptances : ++refusals;
    if (!fam.check(x, fam.name)) ++violations;
  }

  std::printf(
      "fuzz_pdu: seed=%llu iters=%llu refusals=%llu acceptances=%llu violations=%llu\n",
      static_cast<unsigned long long>(seed), static_cast<unsigned long long>(iters),
      static_cast<unsigned long long>(refusals), static_cast<unsigned long long>(acceptances),
      static_cast<unsigned long long>(violations));
  if (violations > 0 || !ok) {
    std::fprintf(stderr, "fuzz_pdu: FAILED\n");
    return 1;
  }
  std::printf("fuzz_pdu: OK\n");
  return 0;
}
