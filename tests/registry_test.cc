#include "action/registry.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "action/update.h"

namespace rnt::action {
namespace {

TEST(UpdateTest, ReadIsIdentity) {
  EXPECT_EQ(Update::Read().Apply(17), 17);
  EXPECT_EQ(Update::Read().Apply(-3), -3);
  EXPECT_TRUE(Update::Read().IsRead());
}

TEST(UpdateTest, WriteIsConstant) {
  Update w = Update::Write(9);
  EXPECT_EQ(w.Apply(0), 9);
  EXPECT_EQ(w.Apply(123), 9);
  EXPECT_FALSE(w.IsRead());
}

TEST(UpdateTest, AddAndXor) {
  EXPECT_EQ(Update::Add(5).Apply(2), 7);
  EXPECT_EQ(Update::XorConst(3).Apply(5), 6);
  // xor is self-inverse
  EXPECT_EQ(Update::XorConst(3).Apply(Update::XorConst(3).Apply(5)), 5);
}

TEST(UpdateTest, MulAddDoesNotCommuteWithAdd) {
  Update ma = Update::MulAdd(2, 1);
  Update add = Update::Add(3);
  Value one_way = add.Apply(ma.Apply(10));   // (10*2+1)+3 = 24
  Value other = ma.Apply(add.Apply(10));     // (10+3)*2+1 = 27
  EXPECT_NE(one_way, other);
}

TEST(UpdateTest, ToStringIsDescriptive) {
  EXPECT_EQ(Update::Read().ToString(), "read");
  EXPECT_EQ(Update::Write(4).ToString(), "write(4)");
  EXPECT_EQ(Update::MulAdd(2, 3).ToString(), "muladd(2,3)");
}

TEST(RegistryTest, RootExists) {
  ActionRegistry reg;
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_TRUE(reg.Valid(kRootAction));
  EXPECT_EQ(reg.Depth(kRootAction), 0u);
  EXPECT_FALSE(reg.IsAccess(kRootAction));
}

TEST(RegistryTest, ParentChildDepths) {
  ActionRegistry reg;
  ActionId t = reg.NewAction(kRootAction);
  ActionId s = reg.NewAction(t);
  ActionId a = reg.NewAccess(s, 7, Update::Write(1));
  EXPECT_EQ(reg.Parent(t), kRootAction);
  EXPECT_EQ(reg.Parent(s), t);
  EXPECT_EQ(reg.Parent(a), s);
  EXPECT_EQ(reg.Depth(t), 1u);
  EXPECT_EQ(reg.Depth(s), 2u);
  EXPECT_EQ(reg.Depth(a), 3u);
  EXPECT_TRUE(reg.IsAccess(a));
  EXPECT_FALSE(reg.IsAccess(s));
  EXPECT_EQ(reg.Object(a), 7u);
  EXPECT_EQ(reg.UpdateOf(a), Update::Write(1));
}

TEST(RegistryTest, AncestryIsReflexiveAndTransitive) {
  ActionRegistry reg;
  ActionId t = reg.NewAction(kRootAction);
  ActionId s = reg.NewAction(t);
  ActionId a = reg.NewAccess(s, 0, Update::Read());
  EXPECT_TRUE(reg.IsAncestor(a, a));
  EXPECT_TRUE(reg.IsAncestor(t, a));
  EXPECT_TRUE(reg.IsAncestor(kRootAction, a));
  EXPECT_FALSE(reg.IsAncestor(a, t));
  EXPECT_TRUE(reg.IsProperAncestor(t, a));
  EXPECT_FALSE(reg.IsProperAncestor(a, a));
}

TEST(RegistryTest, LcaOfSiblingsIsParent) {
  ActionRegistry reg;
  ActionId t = reg.NewAction(kRootAction);
  ActionId c1 = reg.NewAction(t);
  ActionId c2 = reg.NewAction(t);
  EXPECT_EQ(reg.Lca(c1, c2), t);
  EXPECT_EQ(reg.Lca(c1, c1), c1);
  EXPECT_EQ(reg.Lca(c1, t), t);
}

TEST(RegistryTest, LcaAcrossTopLevelIsRoot) {
  ActionRegistry reg;
  ActionId t1 = reg.NewAction(kRootAction);
  ActionId t2 = reg.NewAction(kRootAction);
  ActionId a1 = reg.NewAccess(t1, 0, Update::Read());
  ActionId a2 = reg.NewAccess(t2, 0, Update::Read());
  EXPECT_EQ(reg.Lca(a1, a2), kRootAction);
}

TEST(RegistryTest, LcaDifferentDepths) {
  ActionRegistry reg;
  ActionId t = reg.NewAction(kRootAction);
  ActionId s = reg.NewAction(t);
  ActionId deep = reg.NewAccess(s, 1, Update::Read());
  ActionId shallow = reg.NewAccess(t, 1, Update::Read());
  EXPECT_EQ(reg.Lca(deep, shallow), t);
}

TEST(RegistryTest, AncestorChainRootFirstFromLeaf) {
  ActionRegistry reg;
  ActionId t = reg.NewAction(kRootAction);
  ActionId s = reg.NewAction(t);
  ActionId a = reg.NewAccess(s, 0, Update::Read());
  std::vector<ActionId> chain = reg.AncestorChain(a);
  ASSERT_EQ(chain.size(), 4u);
  EXPECT_EQ(chain[0], a);
  EXPECT_EQ(chain[1], s);
  EXPECT_EQ(chain[2], t);
  EXPECT_EQ(chain[3], kRootAction);
}

TEST(RegistryTest, ChildIndexListsChildrenInIdOrder) {
  ActionRegistry reg;
  ActionId t = reg.NewAction(kRootAction);
  ActionId u = reg.NewAction(kRootAction);
  ActionId s = reg.NewAction(t);
  ActionId a = reg.NewAccess(t, 0, Update::Read());
  ActionId b = reg.NewAccess(s, 1, Update::Read());
  EXPECT_EQ(reg.Children(kRootAction), (std::vector<ActionId>{t, u}));
  EXPECT_EQ(reg.Children(t), (std::vector<ActionId>{s, a}));
  EXPECT_EQ(reg.Children(s), (std::vector<ActionId>{b}));
  EXPECT_TRUE(reg.Children(u).empty());
  EXPECT_TRUE(reg.Children(a).empty()) << "accesses are leaves";
  for (ActionId c = 1; c < reg.size(); ++c) {
    const std::vector<ActionId>& sibs = reg.Children(reg.Parent(c));
    EXPECT_EQ(std::count(sibs.begin(), sibs.end(), c), 1)
        << "every action is listed once under its parent";
  }
}

TEST(RegistryTest, ChildTowardFindsProjection) {
  ActionRegistry reg;
  ActionId t = reg.NewAction(kRootAction);
  ActionId s = reg.NewAction(t);
  ActionId a = reg.NewAccess(s, 0, Update::Read());
  EXPECT_EQ(reg.ChildToward(kRootAction, a), t);
  EXPECT_EQ(reg.ChildToward(t, a), s);
  EXPECT_EQ(reg.ChildToward(s, a), a);
}

}  // namespace
}  // namespace rnt::action
