// Plain-text table rendering for benchmark harnesses.
//
// Every bench prints paper-style rows; this keeps the formatting in one
// place so EXPERIMENTS.md and bench output stay readable and consistent.
#pragma once

#include <string>
#include <vector>

namespace hotspot::util {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  // Appends one row; the cell count must match the header.
  void add_row(std::vector<std::string> cells);

  // Renders with aligned columns and a separator under the header.
  std::string to_string() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace hotspot::util
