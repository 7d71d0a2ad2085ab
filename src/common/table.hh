/**
 * @file
 * Plain-text table and CSV emitters for figure/report output.
 *
 * Each paper figure (pdnspot/figures.hh) is rows of numbers;
 * AsciiTable renders them aligned as text and CsvWriter dumps the
 * same rows for plotting.
 */

#ifndef PDNSPOT_COMMON_TABLE_HH
#define PDNSPOT_COMMON_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace pdnspot
{

/** Column-aligned plain-text table. */
class AsciiTable
{
  public:
    explicit AsciiTable(std::vector<std::string> headers);

    /** Append a row; must have exactly as many cells as headers. */
    void addRow(std::vector<std::string> cells);

    /** Convenience: format a double with the given precision. */
    static std::string num(double v, int precision = 2);

    /** Convenience: format a ratio as a percentage string. */
    static std::string percent(double ratio, int precision = 1);

    /** Render with column alignment and a header underline. */
    void print(std::ostream &os) const;

    size_t rows() const { return _rows.size(); }

  private:
    std::vector<std::string> _headers;
    std::vector<std::vector<std::string>> _rows;
};

/** Minimal CSV emitter sharing AsciiTable's row model. */
class CsvWriter
{
  public:
    explicit CsvWriter(std::vector<std::string> headers);

    void addRow(std::vector<std::string> cells);

    /** Write header plus rows; cells containing commas are quoted. */
    void write(std::ostream &os) const;

  private:
    static std::string escape(const std::string &cell);

    std::vector<std::string> _headers;
    std::vector<std::vector<std::string>> _rows;
};

} // namespace pdnspot

#endif // PDNSPOT_COMMON_TABLE_HH
