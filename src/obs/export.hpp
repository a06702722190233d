#pragma once
// Shared serialization helpers for every telemetry export in the repo.
//
// Every telemetry export (frontier CSV/JSON, the simulator's per-cell
// table, bench JSON) escapes and formats floats through this one header:
//
//   csv_escape / json_escape   label text made safe for either format
//   format_double              %.17g — the shortest format that
//                              round-trips IEEE doubles, the repo-wide
//                              determinism contract for serialized floats
//   SampleTable                a column-ordered table of labelled numeric
//                              samples with one CSV and one JSON writer;
//                              the CLI's `simulate --out` goes through it
//
// The obs metrics Registry (metrics.hpp) uses the same escapes and the
// same float format, so a dashboard ingesting any easched export parses
// numbers and labels exactly one way.

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace easched::obs {

/// RFC-4180 style: quotes the cell when it contains a comma, quote or
/// newline, doubling embedded quotes.
std::string csv_escape(const std::string& s);

/// Escapes backslash, double quote and control characters for use inside
/// a JSON string literal (without the surrounding quotes).
std::string json_escape(const std::string& s);

/// %.17g — round-trips every IEEE double bit-exactly.
std::string format_double(double v);

/// A table of labelled numeric samples: fixed columns, rows of cells,
/// each cell either quoted (a label) or raw (a pre-rendered number).
/// write_file picks JSON when the path ends in ".json", CSV otherwise.
class SampleTable {
 public:
  explicit SampleTable(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  /// Starts a new row; subsequent add_* calls fill it left to right.
  void begin_row();
  /// A quoted cell: escaped per format at write time.
  void add_label(std::string text);
  /// A raw cell: emitted verbatim (render numbers via format_double or
  /// std::to_string first).
  void add_value(std::string rendered);

  std::size_t rows() const noexcept { return rows_.size(); }

  /// One header row, then one line per row.
  void write_csv(std::ostream& os) const;
  /// {"samples": [{"col": cell, ...}, ...]}
  void write_json(std::ostream& os) const;
  common::Status write_file(const std::string& path) const;

 private:
  struct Cell {
    std::string text;
    bool quoted = false;
  };

  std::vector<std::string> columns_;
  std::vector<std::vector<Cell>> rows_;
};

}  // namespace easched::obs
