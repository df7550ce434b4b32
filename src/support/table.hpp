// table.hpp -- fixed-width ASCII tables for the experiment harness.
//
// Every bench binary prints the rows/series of its experiment through this
// printer so that its output stays uniform and diffable across runs.
#pragma once

#include <string>
#include <type_traits>
#include <vector>

namespace locmm {

class Table {
 public:
  explicit Table(std::string title);

  // Column headers; must be set before any row.
  void columns(std::vector<std::string> names);

  // Append a row of preformatted cells (use cell() helpers below).
  void row(std::vector<std::string> cells);

  // Free-form annotation printed under the table.
  void note(std::string text);

  // Renders to a string; print() writes to stdout.
  std::string render() const;
  void print() const;

  // Cell formatting helpers.
  static std::string cell(double value, int precision = 4);
  template <typename T>
    requires std::is_integral_v<T>
  static std::string cell(T value) {
    return std::to_string(value);
  }
  static std::string cell(const char* s);
  static std::string cell(const std::string& s);

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::string> notes_;
};

}  // namespace locmm
