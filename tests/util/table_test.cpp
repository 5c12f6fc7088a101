#include "util/table.h"

#include <gtest/gtest.h>

namespace hotspot::util {
namespace {

TEST(Table, RendersAlignedColumns) {
  Table table({"Method", "Accu"});
  table.add_row({"Ours", "99.2"});
  table.add_row({"DAC'17", "98.2"});
  const std::string text = table.to_string();
  EXPECT_NE(text.find("| Method "), std::string::npos);
  EXPECT_NE(text.find("| Ours   "), std::string::npos);
  EXPECT_NE(text.find("99.2"), std::string::npos);
}

TEST(TableDeath, RejectsMismatchedRow) {
  Table table({"a", "b"});
  EXPECT_DEATH(table.add_row({"only-one"}), "HOTSPOT_CHECK");
}

}  // namespace
}  // namespace hotspot::util
