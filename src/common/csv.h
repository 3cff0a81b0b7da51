/**
 * @file
 * CSV emission for the scenario runner's result tables (`--csv`) and the
 * golden files they are compared against. The paper's ACCL also writes
 * its per-layer telemetry as CSV files; here that telemetry stays in
 * memory, in AcclMonitor's record streams and in each communicator's
 * progress inside Accl, where C4D reads it.
 *
 * CsvWriter targets any std::ostream so tests can write to a stringstream
 * and benches to files next to their stdout tables.
 */

#ifndef C4_COMMON_CSV_H
#define C4_COMMON_CSV_H

#include <initializer_list>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

namespace c4 {

/**
 * Streaming CSV writer with RFC-4180 quoting.
 */
class CsvWriter
{
  public:
    /** @param out destination stream; must outlive the writer. */
    explicit CsvWriter(std::ostream &out);

    /** Write the header row. Must be the first row written, if used. */
    void header(const std::vector<std::string> &columns);

    /** @name Cell appenders; a row is closed with endRow(). @{ */
    CsvWriter &cell(const std::string &v);
    CsvWriter &cell(const char *v);
    CsvWriter &cell(double v);
    CsvWriter &cell(std::int64_t v);
    CsvWriter &cell(std::int32_t v);
    CsvWriter &cell(std::uint64_t v);
    /** @} */

    void endRow();

    /** Convenience: write an entire row of strings. */
    void row(const std::vector<std::string> &cells);

    std::size_t rowsWritten() const { return rows_; }

  private:
    std::ostream &out_;
    bool rowStarted_ = false;
    std::size_t rows_ = 0;

    void sep();
    static std::string escape(const std::string &v);
};

/**
 * Tiny CSV parser (for tests that round-trip telemetry files). Handles
 * quoted fields with embedded separators and quotes.
 */
std::vector<std::vector<std::string>> parseCsv(const std::string &text);

} // namespace c4

#endif // C4_COMMON_CSV_H
