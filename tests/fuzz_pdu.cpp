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
#include <tuple>
#include <type_traits>
#include <vector>

#include "net/packet.h"
#include "orch/opdu.h"
#include "transport/tpdu.h"
#include "util/checksum.h"
#include "util/frame_pool.h"
#include "util/rng.h"
#include "util/wire_codec.h"

namespace {

using cmtos::Rng;
using cmtos::WireFault;
using cmtos::orch::Opdu;
using cmtos::transport::AckTpdu;
using cmtos::transport::ControlTpdu;
using cmtos::transport::DataTpdu;
using cmtos::transport::FeedbackTpdu;
using cmtos::transport::HeartbeatTpdu;
using cmtos::transport::NakTpdu;

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
  Bytes out(pkt.payload.begin(), pkt.payload.end());
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
// Seed generators: valid encodings with randomized field values.  The
// table-driven PDUs are filled by walking their field tables
// (util/wire_codec.h): an integer takes random bits, a double a random
// value, an enum a random entry of its validity list, a list 0-8 random
// entries, a Bits entry random bools.
// ====================================================================

template <typename V>
void fill(Rng& rng, V& v);

template <typename T, auto... Ms>
void fill_entry(Rng& rng, T& obj, cmtos::wire::Bits<Ms...>) {
  ((obj.*Ms = rng.bernoulli(0.5)), ...);
}

template <typename T, typename M>
void fill_entry(Rng& rng, T& obj, M T::*m) {
  fill(rng, obj.*m);
}

template <typename V>
void fill(Rng& rng, V& v) {
  if constexpr (std::is_enum_v<V>) {
    const auto values = wire_values(V{});
    v = values[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(std::size(values)) - 1))];
  } else if constexpr (std::is_same_v<V, double>) {
    v = rng.uniform_real(-1e6, 1e6);
  } else if constexpr (std::is_integral_v<V>) {
    v = static_cast<V>(rng.next_u64());
  } else if constexpr (requires { v.resize(std::size_t{}); }) {
    v.resize(static_cast<std::size_t>(rng.uniform(0, 8)));
    for (auto& e : v) fill(rng, e);
  } else {
    std::apply([&](auto... entry) { (fill_entry(rng, v, entry), ...); }, V::wire_fields());
  }
}

template <typename Pdu>
Bytes gen(Rng& rng) {
  Pdu pdu;
  fill(rng, pdu);
  return pdu.encode();
}

Bytes gen_data(Rng& rng) {
  DataTpdu t;
  t.vc = static_cast<std::uint32_t>(rng.next_u64());
  t.tpdu_seq = static_cast<std::uint32_t>(rng.next_u64());
  t.osdu_seq = static_cast<std::uint32_t>(rng.next_u64());
  t.event = rng.next_u64();
  // frag_index < frag_count: the decoder refuses any other pair.
  t.frag_count = static_cast<std::uint16_t>(rng.uniform(1, 64));
  t.frag_index = static_cast<std::uint16_t>(rng.uniform(0, t.frag_count - 1));
  t.flags = static_cast<std::uint8_t>(rng.uniform(0, 1));
  t.src_timestamp = rng.uniform(0, 1'000'000'000);
  Bytes payload(static_cast<std::size_t>(rng.uniform(0, 64)));
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
  t.payload = cmtos::PayloadView::adopt(std::move(payload));
  return dt_wire(t);
}

Bytes gen_hb(Rng& rng) {
  HeartbeatTpdu t;
  t.incarnation = static_cast<std::uint32_t>(rng.uniform(1, 8));
  t.seq = static_cast<std::uint32_t>(rng.next_u64());
  t.ack = static_cast<std::uint32_t>(rng.next_u64());
  t.vc_count = static_cast<std::uint32_t>(rng.uniform(0, 10'000));
  t.digest = rng.next_u64();
  t.flags = static_cast<std::uint8_t>(rng.uniform(0, 3));
  t.feedback.resize(static_cast<std::size_t>(rng.uniform(0, 4)));
  for (auto& e : t.feedback) fill(rng, e);
  if ((t.flags & cmtos::transport::kHbCarriesIds) != 0) {
    const auto k = static_cast<std::size_t>(rng.uniform(0, 8));
    for (std::size_t i = 0; i < k; ++i)
      t.ids.push_back(static_cast<std::uint32_t>(rng.next_u64()));
  }
  return t.encode();
}

// ====================================================================
// Family table: generator + decode/re-encode fixpoint check.
// ====================================================================

// What one decode of a mutant did.
enum class Verdict { kRefused, kAccepted, kViolation };

// Decodes `wire`; on acceptance runs the fixpoint oracle.  Each family
// instantiates this for its own types.
template <typename Pdu>
Verdict fixpoint(std::span<const std::uint8_t> wire, const char* family) {
  WireFault fault = WireFault::kNone;
  auto d1 = Pdu::decode(wire, &fault);
  if (!d1) return Verdict::kRefused;  // refusal is always acceptable
  const Bytes e1 = d1->encode();
  auto d2 = Pdu::decode(e1, &fault);
  if (!d2) {
    std::fprintf(stderr, "FUZZ VIOLATION [%s]: re-decode of accepted input failed (%s)\n",
                 family, to_string(fault));
    return Verdict::kViolation;
  }
  if (d2->encode() != e1) {
    std::fprintf(stderr, "FUZZ VIOLATION [%s]: encode(decode(x)) is not a fixpoint\n",
                 family);
    return Verdict::kViolation;
  }
  return Verdict::kAccepted;
}

// The packet-path fixpoint: an accepted packet re-encodes to a packet that
// decodes again and re-encodes byte-identically.
Verdict dt_fixpoint(const cmtos::net::Packet& pkt, const char* family) {
  WireFault fault = WireFault::kNone;
  auto d1 = DataTpdu::decode_packet(pkt, &fault);
  if (!d1) return Verdict::kRefused;  // refusal is always acceptable
  const Bytes e1 = dt_wire(*d1);
  auto d2 = DataTpdu::decode_packet(dt_packet(e1), &fault);
  if (!d2) {
    std::fprintf(stderr, "FUZZ VIOLATION [%s]: re-decode of accepted input failed (%s)\n",
                 family, to_string(fault));
    return Verdict::kViolation;
  }
  if (dt_wire(*d2) != e1) {
    std::fprintf(stderr, "FUZZ VIOLATION [%s]: encode(decode(x)) is not a fixpoint\n",
                 family);
    return Verdict::kViolation;
  }
  return Verdict::kAccepted;
}

Verdict dt_check(std::span<const std::uint8_t> wire, const char* family) {
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
  Verdict (*check)(std::span<const std::uint8_t>, const char*);
  void (*reseal)(Bytes&);
};

constexpr Family kFamilies[] = {
    {"control_tpdu", gen<ControlTpdu>, fixpoint<ControlTpdu>, reseal_trailer},
    {"data_tpdu", gen_data, dt_check, reseal_dt_header},
    {"ack_tpdu", gen<AckTpdu>, fixpoint<AckTpdu>, reseal_trailer},
    {"nak_tpdu", gen<NakTpdu>, fixpoint<NakTpdu>, reseal_trailer},
    {"fb_tpdu", gen<FeedbackTpdu>, fixpoint<FeedbackTpdu>, reseal_trailer},
    {"hb_tpdu", gen_hb, fixpoint<HeartbeatTpdu>, reseal_trailer},
    {"opdu", gen<Opdu>, fixpoint<Opdu>, reseal_trailer},
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
  t.frag_count = static_cast<std::uint16_t>(rng.uniform(1, 8));
  t.frag_index = static_cast<std::uint16_t>(rng.uniform(0, t.frag_count - 1));
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

  return dt_fixpoint(pkt, "data_tpdu/packet") != Verdict::kViolation;
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
      if (fam.check(bytes, fam.name) == Verdict::kViolation) {
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
    const Verdict v = fam.check(x, fam.name);
    v == Verdict::kRefused ? ++refusals : ++acceptances;
    if (v == Verdict::kViolation) ++violations;
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
