// Serialization tests: Binary and Compact protocol round trips for every
// scalar type, strings, containers, nested structs, field skipping, message
// envelopes, and compact-specific encodings (zigzag varints, bool-in-header,
// field-id deltas), plus rejection of hostile nesting depths and lengths.
// Parameterized across both protocols where behaviour must be identical.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cmath>
#include <functional>
#include <limits>
#include <memory>

#include "sim/rng.h"

#include "thrift/protocol.h"

namespace hatrpc::thrift {
namespace {

enum class Proto { kBinary, kCompact };

std::unique_ptr<TProtocol> make_proto(Proto p, TMemoryBuffer& buf) {
  switch (p) {
    case Proto::kBinary: return std::make_unique<TBinaryProtocol>(buf);
    case Proto::kCompact: return std::make_unique<TCompactProtocol>(buf);
  }
  return nullptr;
}

class ProtocolRoundTrip : public ::testing::TestWithParam<Proto> {};

TEST_P(ProtocolRoundTrip, Scalars) {
  TMemoryBuffer buf;
  auto p = make_proto(GetParam(), buf);
  p->writeBool(true);
  p->writeBool(false);
  p->writeByte(-7);
  p->writeI16(-12345);
  p->writeI32(123456789);
  p->writeI64(-9876543210123LL);
  p->writeDouble(3.141592653589793);
  p->writeString("hello thrift");
  p->writeString("");

  EXPECT_TRUE(p->readBool());
  EXPECT_FALSE(p->readBool());
  EXPECT_EQ(p->readByte(), -7);
  EXPECT_EQ(p->readI16(), -12345);
  EXPECT_EQ(p->readI32(), 123456789);
  EXPECT_EQ(p->readI64(), -9876543210123LL);
  EXPECT_DOUBLE_EQ(p->readDouble(), 3.141592653589793);
  EXPECT_EQ(p->readString(), "hello thrift");
  EXPECT_EQ(p->readString(), "");
}

TEST_P(ProtocolRoundTrip, ExtremeValues) {
  TMemoryBuffer buf;
  auto p = make_proto(GetParam(), buf);
  p->writeI16(std::numeric_limits<int16_t>::min());
  p->writeI16(std::numeric_limits<int16_t>::max());
  p->writeI32(std::numeric_limits<int32_t>::min());
  p->writeI32(std::numeric_limits<int32_t>::max());
  p->writeI64(std::numeric_limits<int64_t>::min());
  p->writeI64(std::numeric_limits<int64_t>::max());
  p->writeDouble(-0.0);
  p->writeDouble(std::numeric_limits<double>::infinity());
  p->writeDouble(std::numeric_limits<double>::denorm_min());

  EXPECT_EQ(p->readI16(), std::numeric_limits<int16_t>::min());
  EXPECT_EQ(p->readI16(), std::numeric_limits<int16_t>::max());
  EXPECT_EQ(p->readI32(), std::numeric_limits<int32_t>::min());
  EXPECT_EQ(p->readI32(), std::numeric_limits<int32_t>::max());
  EXPECT_EQ(p->readI64(), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(p->readI64(), std::numeric_limits<int64_t>::max());
  EXPECT_TRUE(std::signbit(p->readDouble()));
  EXPECT_TRUE(std::isinf(p->readDouble()));
  EXPECT_EQ(p->readDouble(), std::numeric_limits<double>::denorm_min());
}

TEST_P(ProtocolRoundTrip, MessageEnvelope) {
  TMemoryBuffer buf;
  auto p = make_proto(GetParam(), buf);
  p->writeMessageBegin("MultiGET", TMessageType::kCall, 42);
  p->writeMessageEnd();
  auto h = p->readMessageBegin();
  EXPECT_EQ(h.name, "MultiGET");
  EXPECT_EQ(h.type, TMessageType::kCall);
  EXPECT_EQ(h.seqid, 42);
}

TEST_P(ProtocolRoundTrip, StructWithFields) {
  TMemoryBuffer buf;
  auto p = make_proto(GetParam(), buf);
  p->writeStructBegin("KV");
  p->writeFieldBegin(TType::kString, 1);
  p->writeString("key-abc");
  p->writeFieldEnd();
  p->writeFieldBegin(TType::kI64, 2);
  p->writeI64(999);
  p->writeFieldEnd();
  p->writeFieldBegin(TType::kBool, 3);
  p->writeBool(true);
  p->writeFieldEnd();
  p->writeFieldStop();
  p->writeStructEnd();

  p->readStructBegin();
  auto f1 = p->readFieldBegin();
  EXPECT_EQ(f1.type, TType::kString);
  EXPECT_EQ(f1.id, 1);
  EXPECT_EQ(p->readString(), "key-abc");
  p->readFieldEnd();
  auto f2 = p->readFieldBegin();
  EXPECT_EQ(f2.type, TType::kI64);
  EXPECT_EQ(f2.id, 2);
  EXPECT_EQ(p->readI64(), 999);
  p->readFieldEnd();
  auto f3 = p->readFieldBegin();
  EXPECT_EQ(f3.type, TType::kBool);
  EXPECT_EQ(f3.id, 3);
  EXPECT_TRUE(p->readBool());
  p->readFieldEnd();
  auto fstop = p->readFieldBegin();
  EXPECT_EQ(fstop.type, TType::kStop);
  p->readStructEnd();
}

TEST_P(ProtocolRoundTrip, NonMonotonicFieldIds) {
  // Compact's delta encoding must fall back to explicit ids going backward.
  TMemoryBuffer buf;
  auto p = make_proto(GetParam(), buf);
  p->writeStructBegin("S");
  p->writeFieldBegin(TType::kI32, 10);
  p->writeI32(1);
  p->writeFieldEnd();
  p->writeFieldBegin(TType::kI32, 3);
  p->writeI32(2);
  p->writeFieldEnd();
  p->writeFieldBegin(TType::kI32, 300);
  p->writeI32(3);
  p->writeFieldEnd();
  p->writeFieldStop();
  p->writeStructEnd();

  p->readStructBegin();
  EXPECT_EQ(p->readFieldBegin().id, 10);
  EXPECT_EQ(p->readI32(), 1);
  p->readFieldEnd();
  EXPECT_EQ(p->readFieldBegin().id, 3);
  EXPECT_EQ(p->readI32(), 2);
  p->readFieldEnd();
  EXPECT_EQ(p->readFieldBegin().id, 300);
  EXPECT_EQ(p->readI32(), 3);
  p->readFieldEnd();
  EXPECT_EQ(p->readFieldBegin().type, TType::kStop);
  p->readStructEnd();
}

TEST_P(ProtocolRoundTrip, Containers) {
  TMemoryBuffer buf;
  auto p = make_proto(GetParam(), buf);
  p->writeListBegin(TType::kI32, 3);
  for (int32_t v : {7, 8, 9}) p->writeI32(v);
  p->writeListEnd();
  p->writeMapBegin(TType::kString, TType::kI64, 2);
  p->writeString("a");
  p->writeI64(1);
  p->writeString("b");
  p->writeI64(2);
  p->writeMapEnd();
  p->writeSetBegin(TType::kByte, 20);  // large set: compact long form
  for (int i = 0; i < 20; ++i) p->writeByte(static_cast<int8_t>(i));
  p->writeSetEnd();

  auto l = p->readListBegin();
  EXPECT_EQ(l.elem, TType::kI32);
  EXPECT_EQ(l.size, 3u);
  EXPECT_EQ(p->readI32(), 7);
  EXPECT_EQ(p->readI32(), 8);
  EXPECT_EQ(p->readI32(), 9);
  p->readListEnd();
  auto m = p->readMapBegin();
  EXPECT_EQ(m.key, TType::kString);
  EXPECT_EQ(m.val, TType::kI64);
  EXPECT_EQ(m.size, 2u);
  EXPECT_EQ(p->readString(), "a");
  EXPECT_EQ(p->readI64(), 1);
  EXPECT_EQ(p->readString(), "b");
  EXPECT_EQ(p->readI64(), 2);
  p->readMapEnd();
  auto s = p->readSetBegin();
  EXPECT_EQ(s.elem, TType::kByte);
  EXPECT_EQ(s.size, 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(p->readByte(), i);
  p->readSetEnd();
}

TEST_P(ProtocolRoundTrip, EmptyMap) {
  TMemoryBuffer buf;
  auto p = make_proto(GetParam(), buf);
  p->writeMapBegin(TType::kString, TType::kI32, 0);
  p->writeMapEnd();
  p->writeI32(77);  // sentinel to prove position is right
  auto m = p->readMapBegin();
  EXPECT_EQ(m.size, 0u);
  p->readMapEnd();
  EXPECT_EQ(p->readI32(), 77);
}

TEST_P(ProtocolRoundTrip, NestedStructs) {
  TMemoryBuffer buf;
  auto p = make_proto(GetParam(), buf);
  p->writeStructBegin("Outer");
  p->writeFieldBegin(TType::kStruct, 1);
  p->writeStructBegin("Inner");
  p->writeFieldBegin(TType::kI32, 5);
  p->writeI32(55);
  p->writeFieldEnd();
  p->writeFieldStop();
  p->writeStructEnd();
  p->writeFieldEnd();
  p->writeFieldBegin(TType::kI32, 2);
  p->writeI32(22);
  p->writeFieldEnd();
  p->writeFieldStop();
  p->writeStructEnd();

  p->readStructBegin();
  auto f = p->readFieldBegin();
  EXPECT_EQ(f.type, TType::kStruct);
  p->readStructBegin();
  EXPECT_EQ(p->readFieldBegin().id, 5);
  EXPECT_EQ(p->readI32(), 55);
  p->readFieldEnd();
  EXPECT_EQ(p->readFieldBegin().type, TType::kStop);
  p->readStructEnd();
  p->readFieldEnd();
  // Field-id tracking must be restored after the nested struct (id 2 after
  // id 1, a delta of 1 in compact).
  auto f2 = p->readFieldBegin();
  EXPECT_EQ(f2.id, 2);
  EXPECT_EQ(p->readI32(), 22);
  p->readFieldEnd();
  EXPECT_EQ(p->readFieldBegin().type, TType::kStop);
  p->readStructEnd();
}

TEST_P(ProtocolRoundTrip, SkipUnknownFields) {
  TMemoryBuffer buf;
  auto p = make_proto(GetParam(), buf);
  p->writeStructBegin("S");
  p->writeFieldBegin(TType::kList, 1);
  p->writeListBegin(TType::kString, 2);
  p->writeString("skip-me");
  p->writeString("me-too");
  p->writeListEnd();
  p->writeFieldEnd();
  p->writeFieldBegin(TType::kStruct, 2);
  p->writeStructBegin("Inner");
  p->writeFieldBegin(TType::kDouble, 1);
  p->writeDouble(1.5);
  p->writeFieldEnd();
  p->writeFieldStop();
  p->writeStructEnd();
  p->writeFieldEnd();
  p->writeFieldBegin(TType::kI32, 3);
  p->writeI32(42);
  p->writeFieldEnd();
  p->writeFieldStop();
  p->writeStructEnd();

  p->readStructBegin();
  auto f1 = p->readFieldBegin();
  p->skip(f1.type);
  p->readFieldEnd();
  auto f2 = p->readFieldBegin();
  p->skip(f2.type);
  p->readFieldEnd();
  auto f3 = p->readFieldBegin();
  EXPECT_EQ(f3.id, 3);
  EXPECT_EQ(p->readI32(), 42);
  p->readFieldEnd();
  EXPECT_EQ(p->readFieldBegin().type, TType::kStop);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ProtocolRoundTrip,
                         ::testing::Values(Proto::kBinary, Proto::kCompact),
                         [](const auto& info) {
                           switch (info.param) {
                             case Proto::kBinary: return "Binary";
                             case Proto::kCompact: return "Compact";
                           }
                           return "?";
                         });

TEST(CompactProtocol, SmallIntsEncodeSmallerThanBinary) {
  TMemoryBuffer b1, b2;
  TBinaryProtocol bin(b1);
  TCompactProtocol cmp(b2);
  for (int i = 0; i < 100; ++i) {
    bin.writeI64(i);
    cmp.writeI64(i);
  }
  EXPECT_EQ(b1.view().size(), 800u);
  EXPECT_LT(b2.view().size(), 200u);  // one varint byte each
}

TEST(CompactProtocol, ZigzagMapsSignBitsCompactly) {
  TMemoryBuffer buf;
  TCompactProtocol p(buf);
  p.writeI32(-1);  // zigzag(-1) = 1 -> single byte
  EXPECT_EQ(buf.view().size(), 1u);
  EXPECT_EQ(p.readI32(), -1);
}

TEST(BinaryProtocol, RejectsBadVersion) {
  TMemoryBuffer buf;
  TBinaryProtocol w(buf);
  w.writeI32(0x12345678);  // not a strict-mode header
  w.writeString("x");
  w.writeI32(0);
  TBinaryProtocol r(buf);
  EXPECT_THROW(r.readMessageBegin(), TProtocolException);
}

TEST(BinaryProtocol, RejectsNegativeStringLength) {
  TMemoryBuffer buf;
  TBinaryProtocol w(buf);
  w.writeI32(-5);
  TBinaryProtocol r(buf);
  EXPECT_THROW(r.readString(), TProtocolException);
}

TEST(MemoryBuffer, UnderflowThrows) {
  TMemoryBuffer buf;
  buf.write("ab", 2);
  char out[4];
  EXPECT_THROW(buf.read(out, 4), TTransportException);
}

TEST(MemoryBuffer, WrapGivesReadAccess) {
  std::string s = "wrapped";
  auto b = TMemoryBuffer::wrap(
      {reinterpret_cast<const std::byte*>(s.data()), s.size()});
  EXPECT_EQ(b.read_string(7), "wrapped");
  EXPECT_EQ(b.readable(), 0u);
}

TEST(MemoryBuffer, WrapAliasesItsSource) {
  std::vector<std::byte> src(4096, std::byte{0x5a});
  auto b = TMemoryBuffer::wrap(src);
  EXPECT_EQ(b.view().data(), src.data());
  EXPECT_EQ(b.view().size(), src.size());
}

TEST(MemoryBuffer, WriteAfterWrapLeavesTheSourceUnchanged) {
  std::string s = "source";
  const std::string before = s;
  auto b = TMemoryBuffer::wrap(
      {reinterpret_cast<const std::byte*>(s.data()), s.size()});
  b.write("+more", 5);
  EXPECT_EQ(s, before);
  EXPECT_NE(b.view().data(), reinterpret_cast<const std::byte*>(s.data()));
  EXPECT_EQ(b.read_string(11), "source+more");
}

TEST(MemoryBuffer, FieldStopAfterALargeStringDoesNotReallocate) {
  TMemoryBuffer buf;
  TBinaryProtocol p(buf);
  p.writeFieldBegin(TType::kString, 1);
  p.writeString(std::string(128 << 10, 'x'));
  const std::byte* data = buf.view().data();
  p.writeFieldStop();
  EXPECT_EQ(buf.view().data(), data);
  EXPECT_EQ(buf.view().size(), 3u + 4u + (128u << 10) + 1u);
}

// ---------------------------------------------------------------------------
// Hostile input: declared nesting and lengths come from the peer and must be
// rejected with an exception, never a crash or an allocation they did not pay
// for in bytes.
// ---------------------------------------------------------------------------

// Writes `levels` structs, each the only field (id 1) of the one outside it.
// Unclosed, the bytes are just the chain of struct headers.
void write_nested_structs(TProtocol& p, int levels, bool closed) {
  for (int i = 0; i < levels; ++i) {
    p.writeStructBegin("N");
    if (i + 1 < levels) p.writeFieldBegin(TType::kStruct, 1);
  }
  if (!closed) return;
  for (int i = 0; i < levels; ++i) {
    p.writeFieldStop();
    p.writeStructEnd();
    if (i + 1 < levels) p.writeFieldEnd();
  }
}

TEST_P(ProtocolRoundTrip, SkipAcceptsNestingUpToTheDepthLimit) {
  TMemoryBuffer buf;
  auto w = make_proto(GetParam(), buf);
  write_nested_structs(*w, TProtocol::kMaxSkipDepth, /*closed=*/true);
  auto r = make_proto(GetParam(), buf);
  r->skip(TType::kStruct);
  EXPECT_EQ(buf.readable(), 0u);

  TMemoryBuffer deeper;
  auto w2 = make_proto(GetParam(), deeper);
  write_nested_structs(*w2, TProtocol::kMaxSkipDepth + 1, /*closed=*/true);
  auto r2 = make_proto(GetParam(), deeper);
  try {
    r2->skip(TType::kStruct);
    FAIL() << "skip accepted nesting past the depth limit";
  } catch (const TProtocolException& e) {
    EXPECT_EQ(e.kind(), TProtocolException::Kind::kDepthLimit);
  }
}

TEST(HostileInput, DeeplyNestedStructHeadersThrowInsteadOfOverflowingStack) {
  for (Proto proto : {Proto::kBinary, Proto::kCompact}) {
    TMemoryBuffer buf;
    auto w = make_proto(proto, buf);
    write_nested_structs(*w, 100000, /*closed=*/false);
    auto r = make_proto(proto, buf);
    try {
      r->skip(TType::kStruct);
      FAIL() << "skip returned on 100k nested struct headers";
    } catch (const TProtocolException& e) {
      EXPECT_EQ(e.kind(), TProtocolException::Kind::kDepthLimit);
    }
  }
}

size_t peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<size_t>(ru.ru_maxrss);
}

/// A buffer that owns `bytes` (wrap() would alias a local that dies here).
TMemoryBuffer wrap_bytes(std::initializer_list<uint8_t> bytes) {
  TMemoryBuffer buf;
  for (uint8_t b : bytes) buf.write(&b, 1);
  return buf;
}

TEST(HostileInput, HugeDeclaredStringLengthThrowsWithoutAllocating) {
  const size_t before = peak_rss_kb();
  {
    // Binary: a 4-byte message that is only a 2 GiB - 1 length prefix.
    TMemoryBuffer b = wrap_bytes({0x7f, 0xff, 0xff, 0xff});
    TBinaryProtocol p(b);
    EXPECT_THROW(p.readString(), TTransportException);
  }
  {
    // Compact: varint 2^31.
    TMemoryBuffer b = wrap_bytes({0x80, 0x80, 0x80, 0x80, 0x08});
    TCompactProtocol p(b);
    EXPECT_THROW(p.readString(), TTransportException);
  }
  {
    // Binary message envelope whose method name claims 2 GiB - 1 bytes.
    TMemoryBuffer b =
        wrap_bytes({0x80, 0x01, 0x00, 0x01, 0x7f, 0xff, 0xff, 0xff});
    TBinaryProtocol p(b);
    EXPECT_THROW(p.readMessageBegin(), TTransportException);
  }
  EXPECT_LT(peak_rss_kb() - before, 64u * 1024) << "peak RSS grew (KiB)";
}

// ---------------------------------------------------------------------------
// Fuzz-style property test: randomly generated nested documents must
// round-trip identically through every protocol.
// ---------------------------------------------------------------------------

TEST_P(ProtocolRoundTrip, FuzzedNestedStructsRoundTrip) {
  for (uint64_t seed : {1u, 7u, 42u, 1234u, 99999u}) {
    TMemoryBuffer buf;
    auto p = make_proto(GetParam(), buf);
    hatrpc::sim::Rng wrng(seed), rrng(seed);

    // Recursive generator shared by writer and verifier: both walk the
    // same RNG stream, so the verifier knows exactly what to expect.
    std::function<void(hatrpc::sim::Rng&, bool, int)> walk =
        [&](hatrpc::sim::Rng& rng, bool writing, int depth) {
      int nfields = static_cast<int>(rng.uniform(1, 4));
      if (writing) p->writeStructBegin("F");
      else p->readStructBegin();
      int16_t id = 0;
      for (int f = 0; f < nfields; ++f) {
        id = static_cast<int16_t>(id + rng.uniform(1, 20));
        int t = depth < 2 ? static_cast<int>(rng.bounded(6))
                          : static_cast<int>(rng.bounded(5));
        TType tt;
        switch (t) {
          case 0: tt = TType::kBool; break;
          case 1: tt = TType::kI32; break;
          case 2: tt = TType::kI64; break;
          case 3: tt = TType::kDouble; break;
          case 4: tt = TType::kString; break;
          default: tt = TType::kStruct; break;
        }
        if (writing) p->writeFieldBegin(tt, id);
        else {
          auto fh = p->readFieldBegin();
          ASSERT_EQ(fh.type, tt);
          ASSERT_EQ(fh.id, id);
        }
        switch (t) {
          case 0: {
            bool v = rng.chance(0.5);
            if (writing) p->writeBool(v);
            else EXPECT_EQ(p->readBool(), v);
            break;
          }
          case 1: {
            auto v = static_cast<int32_t>(rng.next());
            if (writing) p->writeI32(v);
            else EXPECT_EQ(p->readI32(), v);
            break;
          }
          case 2: {
            auto v = static_cast<int64_t>(rng.next());
            if (writing) p->writeI64(v);
            else EXPECT_EQ(p->readI64(), v);
            break;
          }
          case 3: {
            double v = rng.uniform01() * 1e9 - 5e8;
            if (writing) p->writeDouble(v);
            else EXPECT_DOUBLE_EQ(p->readDouble(), v);
            break;
          }
          case 4: {
            size_t n = rng.bounded(40);
            std::string v;
            for (size_t i = 0; i < n; ++i)
              v += static_cast<char>(' ' + rng.bounded(94));
            if (writing) p->writeString(v);
            else EXPECT_EQ(p->readString(), v);
            break;
          }
          default:
            walk(rng, writing, depth + 1);
            break;
        }
        if (writing) p->writeFieldEnd();
        else p->readFieldEnd();
      }
      if (writing) p->writeFieldStop();
      else EXPECT_EQ(p->readFieldBegin().type, TType::kStop);
      if (writing) p->writeStructEnd();
      else p->readStructEnd();
    };

    walk(wrng, true, 0);
    walk(rrng, false, 0);
  }
}

}  // namespace
}  // namespace hatrpc::thrift
