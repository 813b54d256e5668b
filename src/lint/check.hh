/**
 * @file
 * Source-level check registry for gcm-lint.
 *
 * The shape mirrors src/verify's LintRegistry — named, documented
 * passes registered at construction, runnable as a whole or by name —
 * but over tokenized source files (lint::SourceFile) instead of graph
 * IR. Each check appends Findings carrying file:line, check id,
 * severity and a fix hint; the registry applies the file's
 * suppression table (`// gcm-lint: allow(<id>)`) before a finding
 * lands in the report, counting what it dropped.
 *
 * The six built-in checks encode the invariants every PR so far has
 * relied on (see DESIGN.md §11 for the catalog):
 *
 *   determinism       no ambient randomness or wall-clock seeding
 *   unordered-iter    no unordered-container iteration feeding output
 *   parallel-capture  parallel lambdas only write task-owned state
 *   throw-discipline  only GcmError (subclasses) cross API boundaries
 *   obs-hot-loop      obs calls in innermost ml/dnn loops are guarded
 *   header-hygiene    include guards present, no using-namespace
 *
 * Registering a custom check:
 *
 *   CheckRegistry::instance().registerCheck(
 *       "my-check", "what it enforces",
 *       [](const SourceFile &f, LintReport &r) { ... });
 */

#ifndef GCM_LINT_CHECK_HH
#define GCM_LINT_CHECK_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "lint/lexer.hh"

namespace gcm::lint
{

/** How bad a finding is; Error findings gate CI. */
enum class Severity : std::uint8_t
{
    Note,
    Warning,
    Error,
};

/** Stable display name ("note", "warning", "error"). */
const char *severityName(Severity severity);

/** One finding raised by a check. */
struct Finding
{
    std::string file;
    int line = 0;
    /** Id of the check that raised it (stable, kebab-case). */
    std::string check;
    Severity severity = Severity::Error;
    std::string message;
    /** How to fix or legitimately suppress the finding. */
    std::string hint;

    /** One-line rendering: "file:12: error [check-id] message". */
    std::string str() const;
};

/** Findings from one analyzer run, plus scan accounting. */
class LintReport
{
  public:
    /**
     * Record a finding unless `file` suppresses `check` on `line`
     * (suppressed findings are counted, not stored).
     */
    void add(const SourceFile &file, int line, std::string check,
             Severity severity, std::string message, std::string hint);

    /** Note that one more file was scanned. */
    void addScannedFile() { ++files_scanned_; }

    const std::vector<Finding> &findings() const { return findings_; }
    bool empty() const { return findings_.empty(); }

    std::size_t count(Severity severity) const;
    bool hasErrors() const { return count(Severity::Error) > 0; }
    std::size_t suppressedCount() const { return suppressed_; }
    std::size_t filesScanned() const { return files_scanned_; }

    /** Order findings by (file, line, check) for stable output. */
    void sort();

    /** Multi-line human rendering, one finding per line + summary. */
    std::string str() const;

    /** gcm-lint/v2 JSON report, one line (schema in DESIGN.md §11). */
    std::string json() const;

  private:
    std::vector<Finding> findings_;
    std::size_t suppressed_ = 0;
    std::size_t files_scanned_ = 0;
};

/** Callable body of a check; appends findings to the report. */
using CheckFn = std::function<void(const SourceFile &, LintReport &)>;

/** A named, documented source check. */
struct SourceCheck
{
    std::string id;
    std::string description;
    CheckFn fn;
};

/** Process-wide registry; built-ins register at construction. */
class CheckRegistry
{
  public:
    static CheckRegistry &instance();

    /** Add a check. Throws GcmError on duplicate ids. */
    void registerCheck(std::string id, std::string description,
                       CheckFn fn);

    const std::vector<SourceCheck> &checks() const { return checks_; }

    /** Lookup by id; nullptr when absent. */
    const SourceCheck *find(const std::string &id) const;

    /** Run every registered check over one file. */
    void run(const SourceFile &file, LintReport &report) const;

    /** Run a subset by id. Throws GcmError on unknown ids. */
    void run(const SourceFile &file, LintReport &report,
             const std::vector<std::string> &ids) const;

  private:
    CheckRegistry();

    std::vector<SourceCheck> checks_;
};

namespace detail
{

/** Registers the six built-in checks (called once by the registry). */
void registerBuiltinChecks(CheckRegistry &registry);

} // namespace detail

/**
 * Collect .cc/.hh sources under each path (files are taken verbatim,
 * directories walked recursively), sorted for deterministic output.
 * Directories named lint_fixtures (deliberately-bad test inputs) or
 * starting with "build"/"check-build" (CMake trees) are skipped.
 * Throws GcmError when a path does not exist.
 */
std::vector<std::string>
collectSources(const std::vector<std::string> &paths);

/**
 * Lex and run checks (all registered when `ids` is empty) over every
 * file; returns the sorted report.
 */
LintReport lintPaths(const std::vector<std::string> &paths,
                     const std::vector<std::string> &ids = {});

} // namespace gcm::lint

#endif // GCM_LINT_CHECK_HH
