// Unit tests for the Value model: PHP-like semantics, copy-on-write arrays, canonical
// serialization (the untrusted report wire format), and multivalue projection/collapse.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/lang/value.h"
#include "tests/test_util.h"

namespace orochi {
namespace {

TEST(ArrayKey, CanonicalIntStrings) {
  EXPECT_TRUE(ArrayKey(std::string("5")).is_int());
  EXPECT_EQ(ArrayKey(std::string("5")).int_key(), 5);
  EXPECT_TRUE(ArrayKey(std::string("-3")).is_int());
  EXPECT_FALSE(ArrayKey(std::string("05")).is_int());   // Leading zero: string key.
  EXPECT_FALSE(ArrayKey(std::string("+5")).is_int());
  EXPECT_FALSE(ArrayKey(std::string("5x")).is_int());
  EXPECT_FALSE(ArrayKey(std::string("")).is_int());
  EXPECT_TRUE(ArrayKey(std::string("0")).is_int());
  EXPECT_FALSE(ArrayKey(std::string("-0")).is_int());  // PHP keeps "-0" a string key.
  EXPECT_EQ(ArrayKey(std::string("-0")).str_key(), "-0");
  EXPECT_FALSE(ArrayKey(std::string("-")).is_int());
  EXPECT_FALSE(ArrayKey(std::string("-05")).is_int());
  EXPECT_FALSE(ArrayKey(std::string("--5")).is_int());
  EXPECT_FALSE(ArrayKey(std::string(" 5")).is_int());
  ArrayKey max_key(std::string("9223372036854775807"));
  ASSERT_TRUE(max_key.is_int());
  EXPECT_EQ(max_key.int_key(), INT64_MAX);
  ArrayKey min_key(std::string("-9223372036854775808"));
  ASSERT_TRUE(min_key.is_int());
  EXPECT_EQ(min_key.int_key(), INT64_MIN);
  // One past either end overflows int64 and stays a string key.
  EXPECT_FALSE(ArrayKey(std::string("9223372036854775808")).is_int());
  EXPECT_FALSE(ArrayKey(std::string("-9223372036854775809")).is_int());
  // More than 19 digits is never an int key.
  EXPECT_FALSE(ArrayKey(std::string("10000000000000000000")).is_int());
}

TEST(ArrayKey, IntAndCanonicalStringCollide) {
  EXPECT_TRUE(ArrayKey(int64_t{7}) == ArrayKey(std::string("7")));
  EXPECT_EQ(ArrayKey(int64_t{7}).Hash(), ArrayKey(std::string("7")).Hash());
  EXPECT_FALSE(ArrayKey(int64_t{7}) == ArrayKey(std::string("seven")));
}

TEST(ArrayObject, AppendAssignsSequentialIndexes) {
  ArrayObject a;
  a.Append(Value::Int(10));
  a.Append(Value::Int(20));
  a.Set(ArrayKey(int64_t{5}), Value::Int(50));
  a.Append(Value::Int(60));  // Next index after 5.
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a.entries()[3].first.int_key(), 6);
}

TEST(ArrayObject, EraseKeepsOrder) {
  ArrayObject a;
  a.Set(ArrayKey(std::string("x")), Value::Int(1));
  a.Set(ArrayKey(std::string("y")), Value::Int(2));
  a.Set(ArrayKey(std::string("z")), Value::Int(3));
  a.Erase(ArrayKey(std::string("y")));
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a.entries()[0].first.str_key(), "x");
  EXPECT_EQ(a.entries()[1].first.str_key(), "z");
  EXPECT_EQ(a.Find(ArrayKey(std::string("z")))->as_int(), 3);
}

// PHP semantics that a position-indexed (packed) list must not change.
TEST(ArrayObject, UnsetLastThenAppendUsesNextKey) {
  ArrayObject a;
  for (int64_t i = 0; i < 3; i++) {
    a.Append(Value::Int(i));
  }
  a.Erase(ArrayKey(int64_t{2}));
  EXPECT_EQ(a.Find(ArrayKey(int64_t{2})), nullptr);
  a.Append(Value::Int(30));
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a.entries()[2].first.int_key(), 3);  // Not 2: next_index never moves back.
  EXPECT_EQ(a.next_index(), 4);
  EXPECT_EQ(a.Find(ArrayKey(int64_t{3}))->as_int(), 30);
  EXPECT_EQ(a.Find(ArrayKey(int64_t{2})), nullptr);
}

TEST(ArrayObject, CanonicalStringKeyFindsPackedPosition) {
  ArrayObject a;
  a.Append(Value::Int(10));
  a.Append(Value::Int(11));
  ASSERT_NE(a.Find(ArrayKey(std::string("1"))), nullptr);
  EXPECT_EQ(a.Find(ArrayKey(std::string("1")))->as_int(), 11);
  EXPECT_TRUE(a.Has(ArrayKey(std::string("0"))));
  EXPECT_FALSE(a.Has(ArrayKey(std::string("2"))));
  EXPECT_FALSE(a.Has(ArrayKey(std::string("-0"))));
}

TEST(ArrayObject, SetExistingKeyOfPackedListKeepsPosition) {
  ArrayObject a;
  for (int64_t i = 0; i < 4; i++) {
    a.Append(Value::Int(i));
  }
  a.Set(ArrayKey(std::string("1")), Value::Str("one"));
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a.entries()[1].first.int_key(), 1);
  EXPECT_EQ(a.entries()[1].second.as_string(), "one");
  EXPECT_EQ(a.entries()[3].second.as_int(), 3);
  EXPECT_EQ(a.next_index(), 4);
}

TEST(ArrayObject, NegativeKeyUnpacks) {
  ArrayObject a;
  a.Append(Value::Int(10));
  a.Append(Value::Int(11));
  a.Set(ArrayKey(int64_t{-1}), Value::Int(-10));
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a.Find(ArrayKey(int64_t{-1}))->as_int(), -10);
  EXPECT_EQ(a.Find(ArrayKey(int64_t{1}))->as_int(), 11);
  a.Append(Value::Int(12));  // A negative key does not move next_index.
  EXPECT_EQ(a.entries()[3].first.int_key(), 2);
  EXPECT_EQ(a.Find(ArrayKey(int64_t{2}))->as_int(), 12);
}

TEST(ArrayObject, AppendAfterMaxKeyReusesIt) {
  ArrayObject a;
  a.Set(ArrayKey(INT64_MAX), Value::Int(1));
  EXPECT_EQ(a.next_index(), INT64_MAX);  // Saturates instead of overflowing.
  a.Append(Value::Int(2));
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a.Find(ArrayKey(INT64_MAX))->as_int(), 2);
}

// The oracle: a plain vector of pairs, looked up by linear scan, with PHP's next-index rule.
struct ModelArray {
  std::vector<std::pair<ArrayKey, int64_t>> entries;
  int64_t next_index = 0;

  size_t Position(const ArrayKey& k) const {
    for (size_t i = 0; i < entries.size(); i++) {
      if (entries[i].first == k) {
        return i;
      }
    }
    return entries.size();
  }
  void Set(const ArrayKey& k, int64_t v) {
    size_t pos = Position(k);
    if (pos < entries.size()) {
      entries[pos].second = v;
      return;
    }
    entries.emplace_back(k, v);
    if (k.is_int() && k.int_key() >= next_index) {
      next_index = k.int_key() + 1;
    }
  }
  void Append(int64_t v) { Set(ArrayKey(next_index), v); }
  void Erase(const ArrayKey& k) {
    size_t pos = Position(k);
    if (pos < entries.size()) {
      entries.erase(entries.begin() + static_cast<ptrdiff_t>(pos));
    }
  }
  bool IsList() const {
    for (size_t i = 0; i < entries.size(); i++) {
      if (!(entries[i].first == ArrayKey(static_cast<int64_t>(i)))) {
        return false;
      }
    }
    return true;
  }
};

ArrayKey RandomKey(Rng& rng) {
  switch (rng.UniformInt(0, 9)) {
    case 0:
      return ArrayKey(rng.UniformInt(-4, -1));
    case 1:
    case 2:
      return ArrayKey(std::to_string(rng.UniformInt(-2, 24)));  // Canonical: an int key.
    case 3: {
      static const char* const kOdd[] = {"-0", "05", "", "x", "1.0"};
      return ArrayKey(std::string(kOdd[rng.UniformInt(0, 4)]));
    }
    case 4:
    case 5:
      return ArrayKey("k" + std::to_string(rng.UniformInt(0, 14)));
    default:
      return ArrayKey(rng.UniformInt(0, 24));
  }
}

::testing::AssertionResult SameAsModel(const ArrayObject& a, const ModelArray& m) {
  if (a.size() != m.entries.size()) {
    return ::testing::AssertionFailure() << "size " << a.size() << " != " << m.entries.size();
  }
  if (a.next_index() != m.next_index) {
    return ::testing::AssertionFailure()
           << "next_index " << a.next_index() << " != " << m.next_index;
  }
  for (size_t i = 0; i < m.entries.size(); i++) {
    const auto& [key, value] = a.entries()[i];
    if (!(key == m.entries[i].first) || !value.is_int() ||
        value.as_int() != m.entries[i].second) {
      return ::testing::AssertionFailure()
             << "entry " << i << ": " << key.ToString() << " vs "
             << m.entries[i].first.ToString();
    }
  }
  return ::testing::AssertionSuccess();
}

// Seeded random Set/Append/Erase/Find/Has sequences against the oracle. Sequences start as
// lists (appends), grow past the scan limit, leave the packed layout, and are copied
// midway (copy-on-write through Value) with both copies mutated afterwards.
TEST(ArrayObject, MatchesReferenceModel) {
  const uint64_t base_seed = TestBaseSeed(0xA77A7);
  SCOPED_TRACE(SeedTraceMessage(base_seed));
  int lists_past_limit = 0;
  int unpacked_past_limit = 0;
  for (uint64_t seq = 0; seq < 120; seq++) {
    Rng rng(base_seed + seq);
    Value arrays[2] = {Value::Array(), Value()};
    ModelArray models[2];
    int live = 1;
    const int ops = static_cast<int>(rng.UniformInt(40, 260));
    const int copy_at = static_cast<int>(rng.UniformInt(5, ops - 5));
    const int leading_appends = static_cast<int>(rng.UniformInt(0, 20));
    for (int op = 0; op < ops; op++) {
      if (op == copy_at) {
        arrays[1] = arrays[0];  // Shares storage until the first write.
        models[1] = models[0];
        live = 2;
      }
      const int which = live == 2 ? static_cast<int>(rng.UniformInt(0, 1)) : 0;
      Value& value = arrays[which];
      ModelArray& model = models[which];
      const int64_t payload = static_cast<int64_t>(seq) * 1000 + op;
      const ArrayKey key = RandomKey(rng);
      const int64_t kind = op < leading_appends ? 0 : rng.UniformInt(0, 9);
      SCOPED_TRACE("seq " + std::to_string(seq) + " op " + std::to_string(op) + " kind " +
                   std::to_string(kind) + " key " + key.ToString());
      if (kind <= 2) {
        value.MutableArray().Append(Value::Int(payload));
        model.Append(payload);
      } else if (kind <= 5) {
        value.MutableArray().Set(key, Value::Int(payload));
        model.Set(key, payload);
      } else if (kind == 6) {
        value.MutableArray().Erase(key);
        model.Erase(key);
      } else {
        const Value* found = value.array().Find(key);
        const size_t pos = model.Position(key);
        ASSERT_EQ(found != nullptr, pos < model.entries.size());
        ASSERT_EQ(value.array().Has(key), found != nullptr);
        if (found != nullptr) {
          ASSERT_EQ(found->as_int(), model.entries[pos].second);
        }
      }
      for (int i = 0; i < live; i++) {
        ASSERT_TRUE(SameAsModel(arrays[i].array(), models[i])) << "copy " << i;
      }
      // Every key the model holds must be found, whichever lookup path serves it.
      for (const auto& [k, v] : model.entries) {
        const Value* found = value.array().Find(k);
        ASSERT_NE(found, nullptr) << k.ToString();
        ASSERT_EQ(found->as_int(), v);
      }
      if (model.entries.size() > ArrayObject::kScanLimit) {
        (model.IsList() ? lists_past_limit : unpacked_past_limit)++;
      }
    }
  }
  // The sweep must exercise both large layouts, not just small scans.
  EXPECT_GT(lists_past_limit, 0);
  EXPECT_GT(unpacked_past_limit, 0);
}

TEST(Value, CopyOnWriteIsolation) {
  Value a = Value::Array();
  a.MutableArray().Append(Value::Int(1));
  Value b = a;  // Shares the array.
  b.MutableArray().Append(Value::Int(2));
  EXPECT_EQ(a.array().size(), 1u);
  EXPECT_EQ(b.array().size(), 2u);
}

TEST(Value, Truthiness) {
  EXPECT_FALSE(Value::Null().Truthy());
  EXPECT_FALSE(Value::Bool(false).Truthy());
  EXPECT_TRUE(Value::Bool(true).Truthy());
  EXPECT_FALSE(Value::Int(0).Truthy());
  EXPECT_TRUE(Value::Int(-1).Truthy());
  EXPECT_FALSE(Value::Float(0.0).Truthy());
  EXPECT_FALSE(Value::Str("").Truthy());
  EXPECT_FALSE(Value::Str("0").Truthy());  // PHP's famous falsy "0".
  EXPECT_TRUE(Value::Str("00").Truthy());
  EXPECT_FALSE(Value::Array().Truthy());
}

TEST(Value, ToStringMatchesPhpConventions) {
  EXPECT_EQ(Value::Null().ToString(), "");
  EXPECT_EQ(Value::Bool(true).ToString(), "1");
  EXPECT_EQ(Value::Bool(false).ToString(), "");
  EXPECT_EQ(Value::Int(-42).ToString(), "-42");
  EXPECT_EQ(Value::Float(1.0).ToString(), "1");   // Integral floats print bare.
  EXPECT_EQ(Value::Float(1.5).ToString(), "1.5");
}

TEST(Value, DeepEqualsIsRepresentationExact) {
  EXPECT_TRUE(Value::DeepEquals(Value::Int(1), Value::Int(1)));
  // Collapse must be representation-exact: int 1 != float 1.0 for dedup purposes.
  EXPECT_FALSE(Value::DeepEquals(Value::Int(1), Value::Float(1.0)));
  Value a = Value::Array();
  a.MutableArray().Set(ArrayKey(std::string("k")), Value::Str("v"));
  Value b = Value::Array();
  b.MutableArray().Set(ArrayKey(std::string("k")), Value::Str("v"));
  EXPECT_TRUE(Value::DeepEquals(a, b));
  b.MutableArray().Set(ArrayKey(std::string("k")), Value::Str("w"));
  EXPECT_FALSE(Value::DeepEquals(a, b));
}

TEST(Value, DeepEqualsIsOrderSensitive) {
  Value a = Value::Array();
  a.MutableArray().Set(ArrayKey(std::string("x")), Value::Int(1));
  a.MutableArray().Set(ArrayKey(std::string("y")), Value::Int(2));
  Value b = Value::Array();
  b.MutableArray().Set(ArrayKey(std::string("y")), Value::Int(2));
  b.MutableArray().Set(ArrayKey(std::string("x")), Value::Int(1));
  EXPECT_FALSE(Value::DeepEquals(a, b));
}

// Serialization roundtrip over a representative set of values.
class SerializeRoundtrip : public ::testing::TestWithParam<int> {};

Value MakeSample(int which) {
  switch (which) {
    case 0: return Value::Null();
    case 1: return Value::Bool(true);
    case 2: return Value::Bool(false);
    case 3: return Value::Int(0);
    case 4: return Value::Int(-123456789);
    case 5: return Value::Int(INT64_MAX);
    case 6: return Value::Float(3.14159);
    case 7: return Value::Float(-0.0);
    case 8: return Value::Str("");
    case 9: return Value::Str("hello; A:2:{ I:0; }");  // Metacharacters in content.
    case 10: return Value::Str(std::string("\0binary\xff", 8));
    case 11: {
      Value v = Value::Array();
      return v;
    }
    case 12: {
      Value v = Value::Array();
      v.MutableArray().Append(Value::Int(1));
      v.MutableArray().Set(ArrayKey(std::string("key")), Value::Str("val"));
      return v;
    }
    default: {
      Value inner = Value::Array();
      inner.MutableArray().Append(Value::Float(2.5));
      Value v = Value::Array();
      v.MutableArray().Set(ArrayKey(std::string("nested")), inner);
      v.MutableArray().Append(Value::Null());
      return v;
    }
  }
}

TEST_P(SerializeRoundtrip, RoundTrips) {
  Value original = MakeSample(GetParam());
  std::string bytes = original.Serialize();
  Result<Value> back = DeserializeValue(bytes);
  ASSERT_TRUE(back.ok()) << back.error();
  EXPECT_TRUE(Value::DeepEquals(original, back.value()));
  // Canonical: re-serialization is byte-identical.
  EXPECT_EQ(back.value().Serialize(), bytes);
}

INSTANTIATE_TEST_SUITE_P(AllSamples, SerializeRoundtrip, ::testing::Range(0, 14));

// Malformed report bytes must be rejected, never crash (reports are untrusted).
class DeserializeRejects : public ::testing::TestWithParam<const char*> {};

TEST_P(DeserializeRejects, Rejects) {
  Result<Value> r = DeserializeValue(GetParam());
  EXPECT_FALSE(r.ok());
}

INSTANTIATE_TEST_SUITE_P(BadInputs, DeserializeRejects,
                         ::testing::Values("", "X;", "I:", "I:12", "I:12x;", "S:5:ab;",
                                           "S:-1:;", "S:9999999999999999999:x;",
                                           "A:2:{I:0;N;}", "A:1:{N;N;}", "B:2;", "F:;",
                                           "N;N;", "A:1:{I:0;N;", "I:99999999999999999999;"));

TEST(Deserialize, DepthLimited) {
  // 100 nested arrays exceeds the depth cap.
  std::string deep;
  for (int i = 0; i < 100; i++) {
    deep += "A:1:{I:0;";
  }
  deep += "N;";
  for (int i = 0; i < 100; i++) {
    deep += "}";
  }
  EXPECT_FALSE(DeserializeValue(deep).ok());
}

TEST(Multi, ContainsMultiFindsNested) {
  Value m = Value::Multi({Value::Int(1), Value::Int(2)});
  EXPECT_TRUE(ContainsMulti(m));
  Value arr = Value::Array();
  arr.MutableArray().Append(Value::Int(1));
  EXPECT_FALSE(ContainsMulti(arr));
  arr.MutableArray().Append(m);
  EXPECT_TRUE(ContainsMulti(arr));
}

TEST(Multi, ProjectComponentSharesUntouchedArrays) {
  Value arr = Value::Array();
  arr.MutableArray().Append(Value::Int(1));
  Value projected = ProjectComponent(arr, 0);
  EXPECT_EQ(projected.array_ptr(), arr.array_ptr());  // No copy when no multi inside.
}

TEST(Multi, ProjectComponentExtractsPerRequest) {
  Value arr = Value::Array();
  arr.MutableArray().Set(ArrayKey(std::string("x")),
                         Value::Multi({Value::Int(10), Value::Int(20)}));
  Value p0 = ProjectComponent(arr, 0);
  Value p1 = ProjectComponent(arr, 1);
  EXPECT_EQ(p0.array().Find(ArrayKey(std::string("x")))->as_int(), 10);
  EXPECT_EQ(p1.array().Find(ArrayKey(std::string("x")))->as_int(), 20);
}

TEST(Multi, CollapseWhenAllEqual) {
  Value v = MakeMultiCollapsed({Value::Str("same"), Value::Str("same"), Value::Str("same")});
  EXPECT_TRUE(v.is_string());
  EXPECT_EQ(v.as_string(), "same");
}

TEST(Multi, NoCollapseWhenAnyDiffers) {
  Value v = MakeMultiCollapsed({Value::Int(1), Value::Int(1), Value::Int(2)});
  ASSERT_TRUE(v.is_multi());
  EXPECT_EQ(v.multi().items.size(), 3u);
}

TEST(Multi, EmptyCollapsesToNull) {
  EXPECT_TRUE(MakeMultiCollapsed({}).is_null());
}

}  // namespace
}  // namespace orochi
