#include "util/table.h"

#include <algorithm>

#include "util/check.h"

namespace hotspot::util {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  HOTSPOT_CHECK(!header_.empty()) << "table needs at least one column";
}

void Table::add_row(std::vector<std::string> cells) {
  HOTSPOT_CHECK_EQ(cells.size(), header_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line = "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      line += " " + row[c] + std::string(widths[c] - row[c].size(), ' ') + " |";
    }
    return line + "\n";
  };
  std::string out = render_row(header_);
  std::string rule = "|";
  for (const auto width : widths) {
    rule += std::string(width + 2, '-') + "|";
  }
  out += rule + "\n";
  for (const auto& row : rows_) {
    out += render_row(row);
  }
  return out;
}

}  // namespace hotspot::util
