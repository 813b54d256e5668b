/**
 * @file
 * The six built-in gcm-lint checks (catalog in DESIGN.md §11).
 *
 * Every check is a token-stream heuristic, not a semantic analysis:
 * it trades soundness for zero-dependency speed and makes the escape
 * hatch explicit — a justified exception is allowlisted in the code
 * with `// gcm-lint: allow(<check-id>)` where reviewers can see it,
 * never silently configured away.
 */

#include <algorithm>
#include <array>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lint/check.hh"

namespace gcm::lint
{

namespace
{

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size()
        && s.compare(s.size() - suffix.size(), suffix.size(), suffix)
        == 0;
}

/** Path with '\\' normalized to '/' for fragment matching. */
std::string
normPath(const std::string &path)
{
    std::string p = path;
    std::replace(p.begin(), p.end(), '\\', '/');
    return p;
}

/** Whether `frag` (e.g. "src/ml/") occurs in the normalized path. */
bool
pathContains(const std::string &path, const std::string &frag)
{
    return normPath(path).find(frag) != std::string::npos;
}

/** Whether `dir` appears as a whole path component. */
bool
pathHasDir(const std::string &path, const std::string &dir)
{
    const std::string p = normPath(path);
    return p.rfind(dir + "/", 0) == 0
        || p.find("/" + dir + "/") != std::string::npos;
}

/**
 * Index of the token closing the bracket opened at `open` (same
 * bracket family only; balanced code nests families properly).
 * kNpos when unbalanced.
 */
std::size_t
matchPair(const std::vector<Token> &toks, std::size_t open,
          const char *o, const char *c)
{
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
        if (toks[i].is(o))
            ++depth;
        else if (toks[i].is(c) && --depth == 0)
            return i;
    }
    return kNpos;
}

/**
 * Index one past the template argument list opened by the '<' at
 * `open`; counts ">>" as two closers. kNpos when this '<' does not
 * look like a template bracket (statement terminator reached first).
 */
std::size_t
matchAngles(const std::vector<Token> &toks, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.is("<")) {
            ++depth;
        } else if (t.is(">")) {
            if (--depth == 0)
                return i + 1;
        } else if (t.is(">>")) {
            depth -= 2;
            if (depth <= 0)
                return i + 1;
        } else if (t.is(";") || t.is("{") || t.is("}")) {
            return kNpos;
        }
    }
    return kNpos;
}

// ---------------------------------------------------------------------
// determinism: no ambient randomness, no wall-clock entropy.
// ---------------------------------------------------------------------

/**
 * Whether a `time(` / `rand(` occurrence is a *declaration* — the
 * preceding token is a type name (`long time()` in a struct) rather
 * than an operator or a statement keyword like `return`.
 */
bool
declLike(const Token *prev)
{
    static const std::set<std::string> kStatementKeywords = {
        "return", "co_return", "case", "co_yield",
    };
    return prev != nullptr && prev->kind == TokKind::Identifier
        && kStatementKeywords.count(prev->text) == 0;
}

void
checkDeterminism(const SourceFile &f, LintReport &r)
{
    static const char *kId = "determinism";
    static const std::string kHint =
        "seed an explicit gcm::Rng and derive per-task streams with "
        "Rng::fork(stream_id)";
    // The Rng implementation itself is the one sanctioned home for a
    // std:: engine, should it ever wrap one.
    const bool rng_home = pathContains(f.path, "src/util/rng");
    const auto &toks = f.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != TokKind::Identifier)
            continue;
        const Token *prev = i > 0 ? &toks[i - 1] : nullptr;
        const Token *next = i + 1 < toks.size() ? &toks[i + 1] : nullptr;
        const bool calls = next != nullptr && next->is("(");
        const bool member =
            prev != nullptr && (prev->is(".") || prev->is("->"));
        if (t.text == "random_device") {
            r.add(f, t.line, kId, Severity::Error,
                  "std::random_device draws nondeterministic entropy",
                  kHint);
        } else if (!rng_home
                   && (t.text == "mt19937" || t.text == "mt19937_64"
                       || t.text == "minstd_rand"
                       || t.text == "default_random_engine")) {
            r.add(f, t.line, kId, Severity::Error,
                  "std:: random engine '" + t.text
                      + "' constructed outside src/util/rng",
                  kHint);
        } else if (t.text == "system_clock") {
            r.add(f, t.line, kId, Severity::Error,
                  "std::chrono::system_clock reads the wall clock "
                  "(use steady_clock for timing, never for seeds)",
                  kHint);
        } else if (t.text == "srand" && calls) {
            r.add(f, t.line, kId, Severity::Error,
                  "srand() seeds the hidden global C generator", kHint);
        } else if ((t.text == "rand" || t.text == "time") && calls
                   && !member && !declLike(prev)) {
            r.add(f, t.line, kId, Severity::Error,
                  t.text == "rand"
                      ? "std::rand() draws from hidden global state"
                      : "time() reads the wall clock into program "
                        "state",
                  kHint);
        }
    }
}

// ---------------------------------------------------------------------
// unordered-iter: range-for over unordered containers must not feed
// output, float aggregation or serialization.
// ---------------------------------------------------------------------

/** Identifiers whose presence marks a file as producing output. */
bool
fileFeedsOutput(const SourceFile &f)
{
    static const std::set<std::string> kMarkers = {
        "ofstream",  "ostringstream",   "ostream",   "printf",
        "fprintf",   "appendJsonString", "serialize", "deserialize",
        "toCsv",     "fromCsv",          "writeCsv",  "reportJson",
        "writeReport", "Writer", // json::Writer, whatever header
    };
    static const std::array<const char *, 6> kIncludes = {
        "<fstream>", "<ostream>",    "<iostream>",
        "<cstdio>",  "util/csv.hh",  "util/json.hh",
    };
    for (const Token &t : f.tokens) {
        if (t.kind == TokKind::Identifier && kMarkers.count(t.text))
            return true;
        if (t.kind == TokKind::Preprocessor
            && t.text.find("include") != std::string::npos) {
            for (const char *inc : kIncludes) {
                if (t.text.find(inc) != std::string::npos)
                    return true;
            }
        }
    }
    return false;
}

void
checkUnorderedIter(const SourceFile &f, LintReport &r)
{
    static const char *kId = "unordered-iter";
    const auto &toks = f.tokens;

    // Names declared with an unordered container type (direct
    // declarations only; aliases via `using X = std::unordered_map`
    // are tracked one level deep).
    std::set<std::string> unordered_names;
    std::set<std::string> unordered_aliases;
    const std::set<std::string> kContainers = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const bool direct = toks[i].kind == TokKind::Identifier
            && kContainers.count(toks[i].text) > 0;
        const bool via_alias = toks[i].kind == TokKind::Identifier
            && unordered_aliases.count(toks[i].text) > 0;
        if (!direct && !via_alias)
            continue;
        // `using Alias = std::unordered_map<...>` registers an alias.
        if (direct && i >= 3 && toks[i - 3].isIdent("using")
            && toks[i - 1].is("=")) {
            // pattern: using X = unordered_map (no std::)
            unordered_aliases.insert(toks[i - 2].text);
        }
        if (direct && i >= 5 && toks[i - 5].isIdent("using")
            && toks[i - 3].is("=") && toks[i - 2].isIdent("std")
            && toks[i - 1].is("::")) {
            unordered_aliases.insert(toks[i - 4].text);
        }
        std::size_t j = i + 1;
        if (direct) {
            if (j >= toks.size() || !toks[j].is("<"))
                continue;
            j = matchAngles(toks, j);
            if (j == kNpos)
                continue;
        }
        while (j < toks.size()
               && (toks[j].is("&") || toks[j].is("*")
                   || toks[j].isIdent("const"))) {
            ++j;
        }
        if (j < toks.size() && toks[j].kind == TokKind::Identifier)
            unordered_names.insert(toks[j].text);
    }
    if (unordered_names.empty())
        return;

    const bool writes = fileFeedsOutput(f);
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!toks[i].isIdent("for") || !toks[i + 1].is("("))
            continue;
        const std::size_t close = matchPair(toks, i + 1, "(", ")");
        if (close == kNpos)
            continue;
        // Range-for: a ':' at paren depth 1 and no ';' (classic for).
        std::size_t colon = kNpos;
        bool classic = false;
        int depth = 0;
        for (std::size_t k = i + 1; k <= close; ++k) {
            if (toks[k].is("(") || toks[k].is("[") || toks[k].is("{"))
                ++depth;
            else if (toks[k].is(")") || toks[k].is("]")
                     || toks[k].is("}"))
                --depth;
            else if (depth == 1 && toks[k].is(";"))
                classic = true;
            else if (depth == 1 && toks[k].is(":") && colon == kNpos)
                colon = k;
        }
        if (classic || colon == kNpos)
            continue;
        for (std::size_t k = colon + 1; k < close; ++k) {
            if (toks[k].kind != TokKind::Identifier
                || unordered_names.count(toks[k].text) == 0) {
                continue;
            }
            if (writes) {
                r.add(f, toks[i].line, kId, Severity::Error,
                      "range-for over unordered container '"
                          + toks[k].text
                          + "' in a file that writes output / "
                            "serializes: iteration order is "
                            "unspecified",
                      "iterate a sorted copy of the keys (or use "
                      "std::map); if order provably never reaches "
                      "output, annotate with // gcm-lint: "
                      "allow(unordered-iter)");
            } else {
                r.add(f, toks[i].line, kId, Severity::Note,
                      "range-for over unordered container '"
                          + toks[k].text
                          + "' (file shows no output markers; keep "
                            "it away from serialization)",
                      "");
            }
            break;
        }
    }
}

// ---------------------------------------------------------------------
// parallel-capture: lambdas passed to parallelFor/parallelMap may
// only write task-owned state.
// ---------------------------------------------------------------------

/** Identifier-position keywords that never start a declaration. */
bool
isStatementKeyword(const std::string &s)
{
    static const std::set<std::string> kKeywords = {
        "return", "throw", "new",  "delete",   "case", "goto",
        "else",   "do",    "break", "continue", "co_return",
    };
    return kKeywords.count(s) > 0;
}

/** Names declared inside [begin, end): the lambda's task-owned state. */
std::set<std::string>
collectBodyLocals(const std::vector<Token> &toks, std::size_t begin,
                  std::size_t end)
{
    std::set<std::string> locals;
    for (std::size_t m = begin; m < end; ++m) {
        const Token &t = toks[m];
        // Structured bindings: auto [a, b] = ...
        if (t.isIdent("auto") && m + 1 < end && toks[m + 1].is("[")) {
            for (std::size_t k = m + 2;
                 k < end && !toks[k].is("]"); ++k) {
                if (toks[k].kind == TokKind::Identifier)
                    locals.insert(toks[k].text);
            }
            continue;
        }
        if (t.kind != TokKind::Identifier || m == begin
            || m + 1 >= end) {
            continue;
        }
        const Token &prev = toks[m - 1];
        const Token &next = toks[m + 1];
        const bool decl_prev =
            (prev.kind == TokKind::Identifier
             && !isStatementKeyword(prev.text))
            || prev.is(">") || prev.is("&") || prev.is("*")
            || prev.is(",");
        if (!decl_prev)
            continue;
        // `T x = ...`, `T x;`, `T x : range` (for-range var),
        // `T x{...}`, plus `, y = ...` continuation declarators.
        if (next.is("=") || next.is(";") || next.is(":")
            || next.is("{")) {
            locals.insert(t.text);
        }
    }
    return locals;
}

bool
isAssignOp(const Token &t)
{
    static const std::set<std::string> kOps = {
        "=",  "+=", "-=", "*=",  "/=",  "%=",
        "&=", "|=", "^=", "<<=", ">>=",
    };
    return t.kind == TokKind::Punct && kOps.count(t.text) > 0;
}

bool
isMutatingMethod(const std::string &s)
{
    static const std::set<std::string> kMethods = {
        "push_back", "emplace_back", "pop_back", "insert", "emplace",
        "erase",     "clear",        "resize",   "assign", "append",
    };
    return kMethods.count(s) > 0;
}

void
analyzeParallelBody(const SourceFile &f, LintReport &r,
                    std::size_t begin, std::size_t end,
                    const std::string &loop_var, bool default_ref,
                    const std::set<std::string> &ref_captures)
{
    static const char *kId = "parallel-capture";
    const auto &toks = f.tokens;

    // Any lock inside the body serializes tasks in scheduling order —
    // exactly what the bit-identical contract forbids.
    for (std::size_t m = begin; m < end; ++m) {
        const Token &t = toks[m];
        const bool lock_type = t.isIdent("lock_guard")
            || t.isIdent("unique_lock") || t.isIdent("scoped_lock");
        const bool lock_call =
            (t.isIdent("lock") || t.isIdent("unlock")) && m > begin
            && (toks[m - 1].is(".") || toks[m - 1].is("->"))
            && m + 1 < end && toks[m + 1].is("(");
        if (lock_type || lock_call) {
            r.add(f, t.line, kId, Severity::Error,
                  "mutex use inside a parallelFor/parallelMap body; "
                  "the determinism contract forbids cross-task "
                  "synchronization",
                  "restructure so each task writes only its own "
                  "index's slot and reduce serially after the loop");
        }
    }

    std::set<std::string> locals =
        collectBodyLocals(toks, begin, end);
    locals.insert(loop_var);

    for (std::size_t m = begin; m < end; ++m) {
        // Prefix ++/-- applied to a chain.
        std::size_t base_idx = kNpos;
        if ((toks[m].is("++") || toks[m].is("--")) && m + 1 < end
            && toks[m + 1].kind == TokKind::Identifier
            && (m == begin
                || !(toks[m - 1].kind == TokKind::Identifier
                     || toks[m - 1].is(")") || toks[m - 1].is("]")))) {
            base_idx = m + 1;
        } else if (toks[m].kind == TokKind::Identifier && m > begin
                   && !(toks[m - 1].is(".") || toks[m - 1].is("->")
                        || toks[m - 1].is("::"))) {
            base_idx = m;
        }
        if (base_idx == kNpos)
            continue;
        const std::string base = toks[base_idx].text;

        // Walk the access chain: subscripts and member selections.
        std::size_t idx = base_idx + 1;
        bool indexed_by_loop = false;
        std::string last_member;
        bool chain = true;
        while (chain && idx < end) {
            if (toks[idx].is("[")) {
                const std::size_t e = matchPair(toks, idx, "[", "]");
                if (e == kNpos || e >= end)
                    break;
                for (std::size_t k = idx + 1; k < e; ++k) {
                    if (toks[k].isIdent(loop_var.c_str()))
                        indexed_by_loop = true;
                }
                idx = e + 1;
            } else if ((toks[idx].is(".") || toks[idx].is("->"))
                       && idx + 1 < end
                       && toks[idx + 1].kind == TokKind::Identifier) {
                last_member = toks[idx + 1].text;
                idx += 2;
            } else {
                chain = false;
            }
        }
        if (idx >= end)
            continue;

        bool mutation = false;
        if (isAssignOp(toks[idx]) || toks[idx].is("++")
            || toks[idx].is("--")) {
            // Member-call results (`a.size() = `) cannot appear here
            // in valid code, so any chain ending in an assign op is a
            // write to `base`'s storage.
            mutation = true;
        } else if (toks[idx].is("(") && isMutatingMethod(last_member)) {
            mutation = true;
        }
        if (!mutation || indexed_by_loop || locals.count(base))
            continue;
        if (!default_ref && ref_captures.count(base) == 0)
            continue;
        r.add(f, toks[base_idx].line, kId, Severity::Error,
              "parallel lambda mutates by-reference capture '" + base
                  + "' not indexed by the loop variable '" + loop_var
                  + "'",
              "write only to a slot owned by the task's index and "
              "reduce serially after the loop");
    }
}

/**
 * Raw std::thread spawns outside the blessed homes. The deterministic
 * pool (src/util/parallel) and the serving front end's planned worker
 * team (src/serve/frontend) are the only places allowed to own
 * threads: anywhere else, a raw spawn bypasses both the bit-identical
 * scheduling contract and GCM_THREADS sizing. Queries like
 * std::thread::hardware_concurrency() don't spawn and are fine;
 * tests/ may spawn freely (concurrency tests need antagonist
 * threads).
 */
void
checkRawThreadSpawns(const SourceFile &f, LintReport &r)
{
    static const char *kId = "parallel-capture";
    if (pathHasDir(f.path, "tests"))
        return;
    if (pathContains(f.path, "src/util/parallel")
        || pathContains(f.path, "src/serve/frontend")) {
        return;
    }
    const auto &toks = f.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (!(toks[i].isIdent("std") && toks[i + 1].is("::")
              && toks[i + 2].isIdent("thread"))) {
            continue;
        }
        // `std::thread::hardware_concurrency()` and other statics are
        // queries, not spawns.
        if (i + 3 < toks.size() && toks[i + 3].is("::"))
            continue;
        r.add(f, toks[i].line, kId, Severity::Error,
              "raw std::thread use outside src/util/parallel and the "
              "serving front end",
              "route parallel work through parallelFor/parallelMap "
              "or the ServerFrontEnd worker team; a deliberate "
              "exception needs // gcm-lint: allow(parallel-capture)");
    }
}

void
checkParallelCapture(const SourceFile &f, LintReport &r)
{
    checkRawThreadSpawns(f, r);
    const auto &toks = f.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!(toks[i].isIdent("parallelFor")
              || toks[i].isIdent("parallelMap"))
            || !toks[i + 1].is("(")) {
            continue;
        }
        const std::size_t close = matchPair(toks, i + 1, "(", ")");
        if (close == kNpos)
            continue;
        // Locate the lambda argument's capture list.
        std::size_t lb = kNpos;
        for (std::size_t j = i + 2; j < close; ++j) {
            if (toks[j].is("[")) {
                lb = j;
                break;
            }
        }
        if (lb == kNpos)
            continue;
        const std::size_t rb = matchPair(toks, lb, "[", "]");
        if (rb == kNpos || rb >= close)
            continue;
        bool default_ref = false;
        std::set<std::string> ref_captures;
        for (std::size_t j = lb + 1; j < rb; ++j) {
            if (!toks[j].is("&"))
                continue;
            if (j + 1 < rb
                && toks[j + 1].kind == TokKind::Identifier) {
                ref_captures.insert(toks[j + 1].text);
            } else {
                default_ref = true;
            }
        }
        if (!default_ref && ref_captures.empty())
            continue;
        // Parameter list: the loop index is the last parameter name.
        std::size_t k = rb + 1;
        std::string loop_var;
        if (k < close && toks[k].is("(")) {
            const std::size_t pc = matchPair(toks, k, "(", ")");
            if (pc == kNpos || pc >= close)
                continue;
            for (std::size_t j = k + 1; j < pc; ++j) {
                if (toks[j].kind == TokKind::Identifier)
                    loop_var = toks[j].text;
            }
            k = pc + 1;
        }
        if (loop_var.empty())
            continue;
        while (k < close && !toks[k].is("{"))
            ++k;
        if (k >= close)
            continue;
        const std::size_t bend = matchPair(toks, k, "{", "}");
        if (bend == kNpos)
            continue;
        analyzeParallelBody(f, r, k + 1, bend, loop_var, default_ref,
                            ref_captures);
    }
}

// ---------------------------------------------------------------------
// throw-discipline: only GcmError (and subclasses) may be thrown
// outside tests/.
// ---------------------------------------------------------------------

void
checkThrowDiscipline(const SourceFile &f, LintReport &r)
{
    static const char *kId = "throw-discipline";
    if (pathHasDir(f.path, "tests"))
        return;
    const auto &toks = f.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!toks[i].isIdent("throw") || i + 1 >= toks.size())
            continue;
        const Token &next = toks[i + 1];
        if (next.is(";")) // bare rethrow inside a catch
            continue;
        if (next.kind == TokKind::Identifier) {
            // Walk the qualified-id (ns::ns::Type) to its last
            // component; GcmError and *Error subclasses pass.
            std::size_t j = i + 1;
            while (j + 2 < toks.size() && toks[j + 1].is("::")
                   && toks[j + 2].kind == TokKind::Identifier) {
                j += 2;
            }
            if (endsWith(toks[j].text, "Error"))
                continue;
        }
        r.add(f, toks[i].line, kId, Severity::Error,
              "throw of a non-GcmError type crosses the library's "
              "error boundary",
              "raise user-facing failures with fatal()/GcmError "
              "(subclasses named *Error are accepted); use "
              "GCM_ASSERT for internal invariants");
    }
}

// ---------------------------------------------------------------------
// obs-hot-loop: obs calls inside innermost src/ml | src/dnn |
// src/search | src/fleet loops must go through the sampled/guarded
// macros.
// ---------------------------------------------------------------------

void
checkObsHotLoop(const SourceFile &f, LintReport &r)
{
    static const char *kId = "obs-hot-loop";
    if (!pathContains(f.path, "src/ml/")
        && !pathContains(f.path, "src/dnn/")
        && !pathContains(f.path, "src/search/")
        && !pathContains(f.path, "src/fleet/")) {
        return;
    }
    const auto &toks = f.tokens;

    // Ranges covered by the sanctioned wrapper macros.
    std::vector<std::pair<std::size_t, std::size_t>> exempt;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if ((toks[i].isIdent("GCM_OBS_GUARDED")
             || toks[i].isIdent("GCM_OBS_SAMPLED"))
            && toks[i + 1].is("(")) {
            const std::size_t e = matchPair(toks, i + 1, "(", ")");
            if (e != kNpos)
                exempt.emplace_back(i, e);
        }
    }
    const auto exempted = [&](std::size_t idx) {
        for (const auto &[b, e] : exempt) {
            if (idx >= b && idx <= e)
                return true;
        }
        return false;
    };

    // Loop bodies: keyword index plus [begin, end) token range.
    struct LoopBody
    {
        std::size_t kw;
        std::size_t begin;
        std::size_t end;
    };
    std::vector<LoopBody> loops;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        std::size_t body = kNpos;
        if ((toks[i].isIdent("for") || toks[i].isIdent("while"))
            && i + 1 < toks.size() && toks[i + 1].is("(")) {
            const std::size_t pc = matchPair(toks, i + 1, "(", ")");
            if (pc == kNpos)
                continue;
            body = pc + 1;
        } else if (toks[i].isIdent("do") && i + 1 < toks.size()
                   && toks[i + 1].is("{")) {
            body = i + 1;
        } else {
            continue;
        }
        if (body < toks.size() && toks[body].is("{")) {
            const std::size_t be = matchPair(toks, body, "{", "}");
            if (be != kNpos)
                loops.push_back({i, body + 1, be});
        } else {
            std::size_t semi = body;
            while (semi < toks.size() && !toks[semi].is(";"))
                ++semi;
            loops.push_back({i, body, semi});
        }
    }

    for (const LoopBody &loop : loops) {
        // Innermost: no nested loop keyword and no parallel primitive
        // (which expands to a loop) inside the body.
        bool innermost = true;
        for (const LoopBody &other : loops) {
            if (other.kw > loop.begin && other.kw < loop.end)
                innermost = false;
        }
        for (std::size_t m = loop.begin;
             innermost && m < loop.end; ++m) {
            if (toks[m].isIdent("parallelFor")
                || toks[m].isIdent("parallelMap")) {
                innermost = false;
            }
        }
        if (!innermost)
            continue;
        for (std::size_t m = loop.begin; m < loop.end; ++m) {
            const Token &t = toks[m];
            const bool obs_call = t.isIdent("counterAdd")
                || t.isIdent("gaugeSet")
                || t.isIdent("histogramObserve")
                || t.isIdent("TraceSpan");
            if (!obs_call || exempted(m))
                continue;
            r.add(f, t.line, kId, Severity::Error,
                  "obs instrumentation '" + t.text
                      + "' inside an innermost src/ml|src/dnn|"
                        "src/search|src/fleet loop perturbs the "
                        "hot path",
                  "hoist it out of the loop, or wrap the call in "
                  "GCM_OBS_GUARDED(...) / GCM_OBS_SAMPLED(...) "
                  "(src/obs/obs.hh)");
        }
    }
}

// ---------------------------------------------------------------------
// header-hygiene: include guards + no `using namespace` in headers.
// ---------------------------------------------------------------------

/** Directive name and remainder with '#'-adjacent spaces stripped. */
std::pair<std::string, std::string>
splitDirective(const std::string &pp)
{
    std::size_t i = 0;
    if (i < pp.size() && pp[i] == '#')
        ++i;
    while (i < pp.size() && pp[i] == ' ')
        ++i;
    std::size_t j = i;
    while (j < pp.size() && pp[j] != ' ')
        ++j;
    std::size_t k = j;
    while (k < pp.size() && pp[k] == ' ')
        ++k;
    return {pp.substr(i, j - i), pp.substr(k)};
}

void
checkHeaderHygiene(const SourceFile &f, LintReport &r)
{
    static const char *kId = "header-hygiene";
    if (!f.isHeader())
        return;
    const auto &toks = f.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].isIdent("using")
            && toks[i + 1].isIdent("namespace")) {
            r.add(f, toks[i].line, kId, Severity::Error,
                  "`using namespace` in a header leaks into every "
                  "includer",
                  "qualify names or move the using-directive into a "
                  ".cc file");
        }
    }
    bool guarded = false;
    std::string pending_ifndef;
    for (const Token &t : toks) {
        if (t.kind != TokKind::Preprocessor)
            continue;
        const auto [name, rest] = splitDirective(t.text);
        if (name == "pragma" && rest == "once") {
            guarded = true;
            break;
        }
        if (name == "ifndef") {
            pending_ifndef = rest;
        } else if (name == "define" && !pending_ifndef.empty()) {
            // "#define GUARD" or "#define GUARD 1"
            if (rest == pending_ifndef
                || rest.rfind(pending_ifndef + " ", 0) == 0) {
                guarded = true;
                break;
            }
            pending_ifndef.clear();
        } else {
            pending_ifndef.clear();
        }
    }
    if (!guarded) {
        r.add(f, 1, kId, Severity::Error,
              "header has neither an include guard nor #pragma once",
              "open with #ifndef GCM_<PATH>_HH / #define "
              "GCM_<PATH>_HH and close with #endif");
    }
}

} // namespace

namespace detail
{

void
registerBuiltinChecks(CheckRegistry &registry)
{
    registry.registerCheck(
        "determinism",
        "no std::rand/random_device/time()/system_clock/std engines; "
        "randomness flows from seeded Rng::fork streams",
        checkDeterminism);
    registry.registerCheck(
        "unordered-iter",
        "no range-for over unordered containers in files that write "
        "output, aggregate floats or serialize",
        checkUnorderedIter);
    registry.registerCheck(
        "parallel-capture",
        "parallelFor/parallelMap lambdas write only task-owned state "
        "and never lock; raw std::thread spawns stay inside "
        "src/util/parallel and src/serve/frontend",
        checkParallelCapture);
    registry.registerCheck(
        "throw-discipline",
        "only GcmError (and *Error subclasses) are thrown outside "
        "tests/",
        checkThrowDiscipline);
    registry.registerCheck(
        "obs-hot-loop",
        "obs calls in innermost src/ml|src/dnn|src/search|src/fleet "
        "loops go through GCM_OBS_GUARDED/GCM_OBS_SAMPLED",
        checkObsHotLoop);
    registry.registerCheck(
        "header-hygiene",
        "headers carry include guards and never `using namespace`",
        checkHeaderHygiene);
}

} // namespace detail

} // namespace gcm::lint
