// Unit tests for cmtos/util: time, rng, checksum, stats, ring buffer,
// byte_io.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/byte_io.h"
#include "util/checksum.h"
#include "util/ring_buffer.h"
#include "util/ring_deque.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/time.h"

namespace cmtos {
namespace {

TEST(Time, TransmissionTimeRoundsUp) {
  // 1000 bytes at 8 Mbit/s = exactly 1 ms.
  EXPECT_EQ(transmission_time(1000, 8'000'000), 1 * kMillisecond);
  // 1 byte at 1 Gbit/s = 8 ns.
  EXPECT_EQ(transmission_time(1, 1'000'000'000), 8);
  // Non-dividing case rounds up, never down.
  EXPECT_EQ(transmission_time(1, 3), (8 * kSecond + 2) / 3);
  EXPECT_EQ(transmission_time(100, 0), 0);
}

TEST(Time, FormatTime) {
  EXPECT_EQ(format_time(1500 * kMicrosecond), "1.500ms");
  EXPECT_EQ(format_time(2 * kSecond), "2.000s");
  EXPECT_EQ(format_time(750), "750ns");
  EXPECT_EQ(format_time(-1500 * kMicrosecond), "-1.500ms");
}

TEST(Time, SecondsConversionsRoundTrip) {
  EXPECT_DOUBLE_EQ(to_seconds(1500 * kMillisecond), 1.5);
  EXPECT_EQ(from_seconds(1.5), 1500 * kMillisecond);
  EXPECT_DOUBLE_EQ(to_millis(20 * kMillisecond), 20.0);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform(-5, 9);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng r(11);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliApproximatesProbability) {
  Rng r(13);
  int hits = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.3, 0.02);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(21);
  Rng child = a.split();
  // The child stream should not be a shifted copy of the parent's.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == child.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Checksum, KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (standard check value).
  const std::string s = "123456789";
  EXPECT_EQ(crc32({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()}), 0xCBF43926u);
}

TEST(Checksum, DetectsSingleBitFlip) {
  std::vector<std::uint8_t> data(128);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i);
  const auto good = crc32(data);
  data[40] ^= 0x10;
  EXPECT_NE(crc32(data), good);
}

TEST(Checksum, EmptyInput) { EXPECT_EQ(crc32({}), 0u); }

// Bit-at-a-time CRC-32 straight from the polynomial: the oracle every
// kernel (folding bulk, slice-by-8 tail, table-only fallback) must match.
std::uint32_t crc32_bitwise(std::span<const std::uint8_t> data, std::uint32_t seed = 0) {
  std::uint32_t c = ~seed;
  for (std::uint8_t b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng r(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(r.next_u64());
  return v;
}

TEST(Checksum, MatchesBitwiseReferenceAtEveryLength) {
  const auto buf = random_bytes(65536, 31);
  const std::span<const std::uint8_t> all(buf);
  for (std::size_t len = 0; len <= 2048; ++len)
    ASSERT_EQ(crc32(all.first(len)), crc32_bitwise(all.first(len))) << "len " << len;
  EXPECT_EQ(crc32(all), crc32_bitwise(all));
}

TEST(Checksum, MatchesBitwiseReferenceAtEveryOffset) {
  // Misaligned starts exercise the unaligned 16-byte loads of the folding
  // kernel and the byte-assembled loads of the table kernel.
  const auto buf = random_bytes(4096 + 64, 37);
  const std::span<const std::uint8_t> all(buf);
  for (std::size_t off = 0; off < 64; ++off) {
    // 16 to 63 bytes fold on one lane (54: the DT header body), 64 and up
    // on four.
    for (std::size_t len : {0, 1, 7, 8, 15, 16, 17, 31, 32, 48, 54, 63, 64, 65, 79, 80, 127,
                            128, 129, 200, 1400, 4096}) {
      const auto s = all.subspan(off, len);
      ASSERT_EQ(crc32(s), crc32_bitwise(s)) << "offset " << off << " len " << len;
    }
  }
}

TEST(Checksum, MatchesBitwiseReferenceWithRandomSeeds) {
  const auto buf = random_bytes(8192, 41);
  const std::span<const std::uint8_t> all(buf);
  Rng r(43);
  for (int i = 0; i < 2000; ++i) {
    const auto off = static_cast<std::size_t>(r.uniform(0, 63));
    const auto len = static_cast<std::size_t>(r.uniform(0, 4096));
    const auto seed = static_cast<std::uint32_t>(r.next_u64());
    const auto s = all.subspan(off, len);
    ASSERT_EQ(crc32(s, seed), crc32_bitwise(s, seed))
        << "offset " << off << " len " << len << " seed " << seed;
  }
}

TEST(Checksum, ChainingMatchesOneShotAcrossFoldThreshold) {
  // crc32(b, crc32(a)) == crc32(a || b) with the split at every position
  // mod 16 on both sides of the 16-byte folding threshold and of the
  // 64-byte four-lane one, so either half may run table-only, folded on
  // one lane, folded on four, or a mix.
  const auto buf = random_bytes(2048, 47);
  const std::span<const std::uint8_t> all(buf);
  for (std::size_t total : {16, 17, 31, 48, 54, 64, 80, 127, 128, 143, 200, 1400}) {
    const auto whole = all.first(total);
    const std::uint32_t one_shot = crc32(whole);
    for (std::size_t split = 0; split <= std::min<std::size_t>(total, 144); ++split) {
      const std::uint32_t chained = crc32(whole.subspan(split), crc32(whole.first(split)));
      ASSERT_EQ(chained, one_shot) << "total " << total << " split " << split;
    }
  }
}

// Every kernel the host supports against the bitwise reference, kernel by
// kernel (crc32() itself runs only the widest one).
class CrcKernelTest : public ::testing::TestWithParam<detail::CrcKernel> {
 protected:
  void SetUp() override {
    if (!detail::crc32_kernel_supported(GetParam()))
      GTEST_SKIP() << "CPU lacks the " << detail::to_string(GetParam()) << " CRC kernel";
  }
  std::uint32_t crc(std::span<const std::uint8_t> s, std::uint32_t seed = 0) const {
    return detail::crc32_with(GetParam(), s, seed).value();
  }
};

TEST_P(CrcKernelTest, MatchesBitwiseAtEveryLengthOffsetAndSeed) {
  // Every length 0..4096 from every start offset 0..63, each offset with
  // its own random seed; the reference advances one byte per length.
  const auto buf = random_bytes(4096 + 64, 53);
  Rng r(59);
  for (std::size_t off = 0; off < 64; ++off) {
    const auto seed = static_cast<std::uint32_t>(r.next_u64());
    std::uint32_t ref = ~seed;  // the bitwise register over buf[off, off + len)
    for (std::size_t len = 0; len <= 4096; ++len) {
      const auto s = std::span<const std::uint8_t>(buf).subspan(off, len);
      ASSERT_EQ(crc(s, seed), ~ref) << "offset " << off << " len " << len;
      ref ^= buf[off + len];
      for (int k = 0; k < 8; ++k) ref = (ref & 1) ? 0xedb88320u ^ (ref >> 1) : ref >> 1;
    }
  }
}

TEST_P(CrcKernelTest, ChainingMatchesOneShotAcrossThresholds) {
  // Splits on both sides of the 16-byte fold, 64-byte four-lane and
  // 256-byte 512-bit thresholds, so either half may take any path.
  const auto buf = random_bytes(4096, 61);
  const std::span<const std::uint8_t> all(buf);
  for (std::size_t total : {16, 17, 31, 63, 64, 65, 127, 255, 256, 257, 271, 320, 511, 512,
                            513, 1400, 4096}) {
    const auto whole = all.first(total);
    const std::uint32_t one_shot = crc32_bitwise(whole);
    for (std::size_t split = 0; split <= std::min<std::size_t>(total, 300); ++split)
      ASSERT_EQ(crc(whole.subspan(split), crc(whole.first(split))), one_shot)
          << "total " << total << " split " << split;
  }
}

INSTANTIATE_TEST_SUITE_P(Checksum, CrcKernelTest,
                         ::testing::Values(detail::CrcKernel::kTable, detail::CrcKernel::kFold128,
                                           detail::CrcKernel::kFold512),
                         [](const auto& param_info) {
                           return std::string(detail::to_string(param_info.param));
                         });

TEST(Checksum, DispatchesToTheWidestSupportedKernel) {
  const auto k = detail::crc32_kernel();
  EXPECT_TRUE(detail::crc32_kernel_supported(k));
  if (k != detail::CrcKernel::kFold512) {
    EXPECT_FALSE(detail::crc32_kernel_supported(detail::CrcKernel::kFold512));
  }
  if (k == detail::CrcKernel::kTable) {
    EXPECT_FALSE(detail::crc32_kernel_supported(detail::CrcKernel::kFold128));
  }
  EXPECT_TRUE(detail::crc32_kernel_supported(detail::CrcKernel::kTable));
  const auto buf = random_bytes(1400, 67);
  EXPECT_EQ(crc32(buf), detail::crc32_with(k, buf).value());
}

TEST(OnlineStats, MeanVarMinMax) {
  OnlineStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineStats, EmptyAndSingle) {
  OnlineStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  s.add(42);
  EXPECT_EQ(s.mean(), 42.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(SampleSet, Percentiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50);
  EXPECT_DOUBLE_EQ(s.percentile(99), 99);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1);
  EXPECT_DOUBLE_EQ(s.min(), 1);
  EXPECT_DOUBLE_EQ(s.max(), 100);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(RingBuffer, FifoOrder) {
  RingBuffer<int> rb(4);
  rb.push(1);
  rb.push(2);
  rb.push(3);
  EXPECT_EQ(rb.pop(), 1);
  EXPECT_EQ(rb.pop(), 2);
  rb.push(4);
  rb.push(5);
  rb.push(6);
  EXPECT_TRUE(rb.full());
  EXPECT_EQ(rb.pop(), 3);
  EXPECT_EQ(rb.pop(), 4);
  EXPECT_EQ(rb.pop(), 5);
  EXPECT_EQ(rb.pop(), 6);
  EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, PopNewestDropsLifo) {
  RingBuffer<int> rb(4);
  rb.push(1);
  rb.push(2);
  rb.push(3);
  EXPECT_EQ(rb.pop_newest(), 3);  // drop-at-source semantics
  EXPECT_EQ(rb.pop_newest(), 2);
  EXPECT_EQ(rb.pop(), 1);
  EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, WrapAroundStress) {
  RingBuffer<int> rb(3);
  int next_in = 0, next_out = 0;
  for (int round = 0; round < 100; ++round) {
    while (!rb.full()) rb.push(next_in++);
    while (!rb.empty()) EXPECT_EQ(rb.pop(), next_out++);
  }
  EXPECT_EQ(next_in, next_out);
}

TEST(RingDeque, MatchesStdDequeAcrossWrapAndGrowth) {
  // Pushes at both ends and pops at both ends, with the head wrapped
  // around the buffer when it grows, in the same order as std::deque.
  RingDeque<int> rd;
  std::deque<int> ref;
  Rng r(19);
  for (int i = 0; i < 5000; ++i) {
    const auto op = r.uniform(0, 3);
    if (op == 0) {
      rd.push_back(i);
      ref.push_back(i);
    } else if (op == 1) {
      rd.push_front(i);
      ref.push_front(i);
    } else if (ref.empty()) {
      continue;
    } else if (op == 2) {
      rd.pop_front();
      ref.pop_front();
    } else {
      rd.pop_back();
      ref.pop_back();
    }
    ASSERT_EQ(rd.size(), ref.size());
    for (std::size_t k = 0; k < ref.size(); k += 7) {
      ASSERT_EQ(rd[k], ref[k]);
    }
  }
}

TEST(RingDeque, PopsAndClearReleaseTheirElements) {
  // A popped slot must not pin what its element held (a queued packet's
  // frame): the element is destroyed on pop, not left moved-from.
  auto held = std::make_shared<int>(7);
  RingDeque<std::shared_ptr<int>> rd;
  for (int i = 0; i < 20; ++i) rd.push_back(held);
  EXPECT_EQ(held.use_count(), 21);
  rd.pop_front();
  rd.pop_back();
  EXPECT_EQ(held.use_count(), 19);
  rd.clear();
  EXPECT_EQ(held.use_count(), 1);
  EXPECT_TRUE(rd.empty());
}

TEST(ByteIo, RoundTripsAllTypes) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.i64(-42);
  w.f64(3.14159);
  w.str("hello");
  w.blob(std::vector<std::uint8_t>{1, 2, 3});

  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.blob(), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_TRUE(r.at_end());
}

TEST(ByteIo, RoundTripsEveryWidthLittleEndian) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.u8(0x81);
  w.u16(0x8382);
  w.u32(0x87868584u);
  w.u64(0x8f8e8d8c8b8a8988ull);
  ASSERT_EQ(buf.size(), 15u);
  for (std::size_t i = 0; i < buf.size(); ++i) EXPECT_EQ(buf[i], 0x81 + i) << "byte " << i;

  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0x81);
  EXPECT_EQ(r.u16(), 0x8382);
  EXPECT_EQ(r.u32(), 0x87868584u);
  EXPECT_EQ(r.u64(), 0x8f8e8d8c8b8a8988ull);
  EXPECT_TRUE(r.at_end());
}

TEST(ByteIo, UnderrunThrowsAtEveryWidth) {
  // One byte short of each width, at the start and after a whole field: the
  // read throws and consumes nothing.
  const std::vector<std::uint8_t> buf(15, 0xa5);
  for (std::size_t width : {1, 2, 4, 8}) {
    for (std::size_t lead : {std::size_t{0}, width}) {
      ByteReader r(std::span<const std::uint8_t>(buf).first(lead + width - 1));
      const auto read = [&] {
        switch (width) {
          case 1: (void)r.u8(); break;
          case 2: (void)r.u16(); break;
          case 4: (void)r.u32(); break;
          default: (void)r.u64(); break;
        }
      };
      if (lead > 0) read();
      EXPECT_THROW(read(), DecodeError) << "width " << width << " lead " << lead;
      EXPECT_EQ(r.remaining(), width - 1) << "width " << width << " lead " << lead;
    }
  }
}

TEST(ByteIo, UnderrunThrows) {
  std::vector<std::uint8_t> buf{1, 2};
  ByteReader r(buf);
  EXPECT_EQ(r.u16(), 0x0201);
  EXPECT_THROW(r.u8(), DecodeError);
}

TEST(ByteIo, LittleEndianOnWire) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.u32(0x11223344);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 0x44);
  EXPECT_EQ(buf[3], 0x11);
}

}  // namespace
}  // namespace cmtos
