#include "core/itemset.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

namespace sdadcs::core {
namespace {

data::Dataset MakeDb() {
  data::DatasetBuilder b;
  int x = b.AddContinuous("x");
  int y = b.AddContinuous("y");
  int c = b.AddCategorical("c");
  const double xs[] = {1, 2, 3, 4};
  const double ys[] = {10, 20, 30, 40};
  const char* cs[] = {"a", "a", "b", "b"};
  for (int i = 0; i < 4; ++i) {
    b.AppendContinuous(x, xs[i]);
    b.AppendContinuous(y, ys[i]);
    b.AppendCategorical(c, cs[i]);
  }
  auto db = std::move(b).Build();
  EXPECT_TRUE(db.ok());
  return std::move(db).value();
}

TEST(ItemsetTest, KeepsItemsSortedByAttr) {
  Itemset s({Item::Categorical(2, 0), Item::Interval(0, 0, 5)});
  EXPECT_EQ(s.item(0).attr, 0);
  EXPECT_EQ(s.item(1).attr, 2);
}

TEST(ItemsetTest, WithItemReplacesSameAttribute) {
  Itemset s({Item::Interval(0, 0, 5)});
  Itemset t = s.WithItem(Item::Interval(0, 1, 3));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_DOUBLE_EQ(t.item(0).lo, 1.0);
  Itemset u = s.WithItem(Item::Interval(1, 0, 9));
  EXPECT_EQ(u.size(), 2u);
}

TEST(ItemsetTest, WithoutAttributeAndIntervals) {
  Itemset s({Item::Interval(0, 0, 5), Item::Categorical(2, 1)});
  EXPECT_EQ(s.WithoutAttribute(0).size(), 1u);
  EXPECT_EQ(s.WithoutAttribute(9).size(), 2u);
  Itemset cats = s.WithoutIntervals();
  ASSERT_EQ(cats.size(), 1u);
  EXPECT_EQ(cats.item(0).kind, Item::Kind::kCategorical);
}

TEST(ItemsetTest, EmptyMatchesEverything) {
  data::Dataset db = MakeDb();
  Itemset empty;
  for (uint32_t r = 0; r < 4; ++r) EXPECT_TRUE(empty.Matches(db, r));
}

TEST(ItemsetTest, ConjunctionSemantics) {
  data::Dataset db = MakeDb();
  int32_t a = db.categorical(2).CodeOf("a");
  Itemset s({Item::Interval(0, 1, 3), Item::Categorical(2, a)});
  // Row 1: x=2 in (1,3], c="a" -> match. Row 2: x=3 but c="b" -> no.
  EXPECT_FALSE(s.Matches(db, 0));  // x=1 excluded
  EXPECT_TRUE(s.Matches(db, 1));
  EXPECT_FALSE(s.Matches(db, 2));
}

TEST(ItemsetTest, CoverFiltersSelection) {
  data::Dataset db = MakeDb();
  Itemset s({Item::Interval(0, 1, 4)});
  data::Selection cover = s.Cover(db, data::Selection::All(4));
  EXPECT_EQ(cover.rows(), (std::vector<uint32_t>{1, 2, 3}));
}

TEST(ItemsetTest, SpecializesWithContainment) {
  Itemset general({Item::Interval(0, 0, 10)});
  Itemset narrow({Item::Interval(0, 2, 5), Item::Categorical(2, 0)});
  EXPECT_TRUE(narrow.Specializes(general));
  EXPECT_FALSE(general.Specializes(narrow));
  // Everything specializes the empty itemset.
  EXPECT_TRUE(general.Specializes(Itemset()));
}

TEST(ItemsetTest, SpecializesFailsOnDisjointIntervals) {
  Itemset a({Item::Interval(0, 0, 5)});
  Itemset b({Item::Interval(0, 5, 10)});
  EXPECT_FALSE(b.Specializes(a));
}

TEST(ItemsetTest, ComplementPartitions) {
  Itemset s({Item::Interval(0, 0, 5), Item::Categorical(2, 0)});
  Itemset a({Item::Interval(0, 0, 5)});
  Itemset rest = s.Complement(a);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest.item(0).attr, 2);
}

TEST(ItemsetTest, KeyDeterministicAndDistinct) {
  Itemset a({Item::Interval(0, 0, 5), Item::Categorical(2, 0)});
  Itemset b({Item::Categorical(2, 0), Item::Interval(0, 0, 5)});
  EXPECT_EQ(a.Key(), b.Key());  // order-insensitive (canonical sort)
  Itemset c({Item::Interval(0, 0, 6), Item::Categorical(2, 0)});
  EXPECT_NE(a.Key(), c.Key());
}

TEST(ItemsetTest, HashSetMembersAreDistinctKeys) {
  // Containers key on the itemset itself, so equality (and the hash that
  // goes with it) must mean exactly Key() equality: 1-ulp neighbours and
  // -0.0 beside 0.0 are different bounds, a categorical item ignores the
  // interval fields, and item order does not matter.
  const double one = 1.0;
  const double above = std::nextafter(one, 2.0);
  const double below = std::nextafter(one, 0.0);
  const double bounds[] = {-0.0, 0.0, below, one, above};
  std::vector<Itemset> all;
  for (double lo : bounds) {
    for (double hi : bounds) {
      all.push_back(Itemset({Item::Interval(0, lo, hi)}));
      all.push_back(Itemset({Item::Interval(0, lo, hi),
                             Item::Categorical(2, 1)}));
      all.push_back(Itemset({Item::Categorical(2, 1),
                             Item::Interval(0, lo, hi)}));
      all.push_back(Itemset({Item::Interval(1, lo, hi)}));
    }
  }
  Item odd = Item::Categorical(2, 1);
  odd.lo = -0.0;
  odd.hi = above;
  all.push_back(Itemset({odd}));
  all.push_back(Itemset({Item::Categorical(2, 1)}));
  all.push_back(Itemset({Item::Categorical(2, 0)}));
  all.push_back(Itemset());

  std::unordered_set<Itemset> set(all.begin(), all.end());
  std::set<std::string> keys;
  for (const Itemset& s : all) keys.insert(s.Key());
  EXPECT_EQ(set.size(), keys.size());
  EXPECT_EQ(keys.size(), 5u * 5u * 3u + 3u);
  for (const Itemset& a : all) {
    for (const Itemset& b : all) {
      EXPECT_EQ(a == b, a.Key() == b.Key()) << a.Key() << " vs " << b.Key();
    }
  }
}

TEST(ItemsetTest, ToStringJoinsWithAnd) {
  data::Dataset db = MakeDb();
  Itemset s({Item::Interval(0, 1, 3),
             Item::Categorical(2, db.categorical(2).CodeOf("a"))});
  EXPECT_EQ(s.ToString(db), "1 < x <= 3 and c = a");
  EXPECT_EQ(Itemset().ToString(db), "{}");
}

}  // namespace
}  // namespace sdadcs::core
