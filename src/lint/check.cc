#include "lint/check.hh"

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "util/error.hh"
#include "util/json.hh"

namespace gcm::lint
{

const char *
severityName(Severity severity)
{
    switch (severity) {
      case Severity::Note:
        return "note";
      case Severity::Warning:
        return "warning";
      case Severity::Error:
        return "error";
    }
    return "unknown";
}

std::string
Finding::str() const
{
    std::ostringstream oss;
    oss << file << ":" << line << ": " << severityName(severity) << " ["
        << check << "] " << message;
    if (!hint.empty())
        oss << " (hint: " << hint << ")";
    return oss.str();
}

void
LintReport::add(const SourceFile &file, int line, std::string check,
                Severity severity, std::string message, std::string hint)
{
    if (file.suppressed(line, check)) {
        ++suppressed_;
        return;
    }
    findings_.push_back({file.path, line, std::move(check), severity,
                         std::move(message), std::move(hint)});
}

std::size_t
LintReport::count(Severity severity) const
{
    std::size_t n = 0;
    for (const auto &f : findings_)
        n += f.severity == severity ? 1 : 0;
    return n;
}

void
LintReport::sort()
{
    std::stable_sort(findings_.begin(), findings_.end(),
                     [](const Finding &a, const Finding &b) {
                         if (a.file != b.file)
                             return a.file < b.file;
                         if (a.line != b.line)
                             return a.line < b.line;
                         return a.check < b.check;
                     });
}

std::string
LintReport::str() const
{
    std::ostringstream oss;
    for (const auto &f : findings_)
        oss << f.str() << "\n";
    oss << "gcm-lint: " << files_scanned_ << " file(s), "
        << count(Severity::Error) << " error(s), "
        << count(Severity::Warning) << " warning(s), "
        << count(Severity::Note) << " note(s), " << suppressed_
        << " suppressed\n";
    return oss.str();
}

std::string
LintReport::json() const
{
    std::string out;
    json::Writer w(out);
    w.beginObject()
        .field("schema", "gcm-lint/v2")
        .field("files_scanned", files_scanned_)
        .key("counts")
        .beginObject()
        .field("error", count(Severity::Error))
        .field("warning", count(Severity::Warning))
        .field("note", count(Severity::Note))
        .field("suppressed", suppressed_)
        .endObject()
        .key("findings")
        .beginArray();
    for (const auto &f : findings_) {
        w.beginObject()
            .field("file", f.file)
            .field("line", f.line)
            .field("check", f.check)
            .field("severity", severityName(f.severity))
            .field("message", f.message)
            .field("hint", f.hint)
            .endObject();
    }
    w.endArray().endObject();
    return out;
}

CheckRegistry &
CheckRegistry::instance()
{
    static CheckRegistry registry;
    return registry;
}

CheckRegistry::CheckRegistry()
{
    detail::registerBuiltinChecks(*this);
}

void
CheckRegistry::registerCheck(std::string id, std::string description,
                             CheckFn fn)
{
    if (find(id) != nullptr)
        fatal("gcm-lint: duplicate check id '", id, "'");
    checks_.push_back({std::move(id), std::move(description),
                       std::move(fn)});
}

const SourceCheck *
CheckRegistry::find(const std::string &id) const
{
    for (const auto &c : checks_) {
        if (c.id == id)
            return &c;
    }
    return nullptr;
}

void
CheckRegistry::run(const SourceFile &file, LintReport &report) const
{
    for (const auto &c : checks_)
        c.fn(file, report);
}

void
CheckRegistry::run(const SourceFile &file, LintReport &report,
                   const std::vector<std::string> &ids) const
{
    for (const auto &id : ids) {
        const SourceCheck *c = find(id);
        if (c == nullptr)
            fatal("gcm-lint: unknown check '", id, "'");
        c->fn(file, report);
    }
}

namespace
{

namespace fs = std::filesystem;

bool
isSourceFile(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".hh" || ext == ".cpp"
        || ext == ".hpp" || ext == ".h";
}

/** Directories the live-tree scan must never descend into. */
bool
isSkippedDir(const fs::path &p)
{
    const std::string name = p.filename().string();
    return name == "lint_fixtures" || name == ".git"
        || name.rfind("build", 0) == 0
        || name.rfind("check-build", 0) == 0;
}

void
collectFrom(const fs::path &p, std::vector<std::string> &out)
{
    std::error_code ec;
    if (fs::is_regular_file(p, ec)) {
        out.push_back(p.string());
        return;
    }
    if (!fs::is_directory(p, ec))
        fatal("gcm-lint: no such file or directory: ", p.string());
    fs::recursive_directory_iterator it(p, ec), end;
    if (ec)
        fatal("gcm-lint: cannot walk ", p.string(), ": ", ec.message());
    for (; it != end; it.increment(ec)) {
        if (ec)
            fatal("gcm-lint: walk failed under ", p.string(), ": ",
                  ec.message());
        if (it->is_directory() && isSkippedDir(it->path())) {
            it.disable_recursion_pending();
            continue;
        }
        if (it->is_regular_file() && isSourceFile(it->path()))
            out.push_back(it->path().string());
    }
}

} // namespace

std::vector<std::string>
collectSources(const std::vector<std::string> &paths)
{
    std::vector<std::string> out;
    for (const auto &p : paths)
        collectFrom(p, out);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

LintReport
lintPaths(const std::vector<std::string> &paths,
          const std::vector<std::string> &ids)
{
    const auto &registry = CheckRegistry::instance();
    LintReport report;
    for (const auto &path : collectSources(paths)) {
        const SourceFile file = lexFile(path);
        report.addScannedFile();
        if (ids.empty())
            registry.run(file, report);
        else
            registry.run(file, report, ids);
    }
    report.sort();
    return report;
}

} // namespace gcm::lint
