#include "util/csv.h"

#include <gtest/gtest.h>

#include <string>

namespace gvex {
namespace {

TEST(TableTest, TextRenderingAlignsColumns) {
  Table t({"method", "score"});
  t.AddRow({"AG", "0.91"});
  t.AddRow({"GNNExplainer", "0.55"});
  std::string text = t.ToText();
  EXPECT_NE(text.find("| method       |"), std::string::npos);
  EXPECT_NE(text.find("| AG           |"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.AddRow({"1"});
  EXPECT_NE(t.ToText().find("| 1 |   |   |"), std::string::npos);
}

TEST(FmtDoubleTest, Precision) {
  EXPECT_EQ(FmtDouble(1.23456, 2), "1.23");
  EXPECT_EQ(FmtDouble(-0.5, 4), "-0.5000");
}

}  // namespace
}  // namespace gvex
