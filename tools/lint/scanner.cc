/**
 * @file
 * Source preprocessing for varsaw-lint: load a file, collect its
 * allow-annotations (which live in comments, so this happens first),
 * then blank comment and string-literal CONTENTS to spaces so rule
 * matching never fires on prose or literals. Offsets and line
 * numbers are preserved exactly — stripped[i] corresponds to raw[i].
 */

#include "lint.hh"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace varsaw::lint {

namespace {

/**
 * Blank comments and string/char literal contents to spaces.
 * Handles //, C comments, "...", '...', and the raw-string form
 * R"delim(...)delim". Newlines inside comments are kept so line
 * numbers stay aligned.
 */
std::string
stripSource(const std::string &src)
{
    std::string out = src;
    enum class St {
        Code,
        Line,
        Block,
        Str,
        Chr,
        Raw
    } st = St::Code;
    std::string rawDelim;
    for (std::size_t i = 0; i < src.size(); ++i) {
        const char c = src[i];
        const char n = i + 1 < src.size() ? src[i + 1] : '\0';
        switch (st) {
        case St::Code:
            if (c == '/' && n == '/') {
                st = St::Line;
                out[i] = out[i + 1] = ' ';
                ++i;
            } else if (c == '/' && n == '*') {
                st = St::Block;
                out[i] = out[i + 1] = ' ';
                ++i;
            } else if (c == 'R' && n == '"' &&
                       (i == 0 ||
                        (!std::isalnum(static_cast<unsigned char>(
                             src[i - 1])) &&
                         src[i - 1] != '_'))) {
                // R"delim( ... )delim"
                std::size_t open = src.find('(', i + 2);
                if (open == std::string::npos)
                    break;
                rawDelim.assign(1, ')');
                rawDelim.append(src, i + 2, open - (i + 2));
                rawDelim += '"';
                st = St::Raw;
                i = open; // keep prefix; contents blanked below
            } else if (c == '"') {
                // Keep the quoted path of a preprocessor #include —
                // the include-graph rules read it; every other
                // string literal is blanked.
                std::size_t ls = src.rfind('\n', i);
                ls = ls == std::string::npos ? 0 : ls + 1;
                std::size_t h = ls;
                while (h < i && (src[h] == ' ' || src[h] == '\t'))
                    ++h;
                if (h < i && src[h] == '#') {
                    const std::size_t end = src.find('"', i + 1);
                    if (end != std::string::npos)
                        i = end;
                } else {
                    st = St::Str;
                }
            } else if (c == '\'') {
                st = St::Chr;
            }
            break;
        case St::Line:
            if (c == '\n')
                st = St::Code;
            else
                out[i] = ' ';
            break;
        case St::Block:
            if (c == '*' && n == '/') {
                st = St::Code;
                out[i] = out[i + 1] = ' ';
                ++i;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
        case St::Str:
            if (c == '\\' && n != '\0') {
                out[i] = out[i + 1] = ' ';
                ++i;
            } else if (c == '"') {
                st = St::Code;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
        case St::Chr:
            if (c == '\\' && n != '\0') {
                out[i] = out[i + 1] = ' ';
                ++i;
            } else if (c == '\'') {
                st = St::Code;
            } else {
                out[i] = ' ';
            }
            break;
        case St::Raw:
            if (src.compare(i, rawDelim.size(), rawDelim) == 0) {
                st = St::Code;
                i += rawDelim.size() - 1;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
        }
    }
    return out;
}

/**
 * Parse `varsaw-lint: allow(...)` / `allow-file(...)` annotations
 * from the RAW text (they live inside comments). Grammar:
 *   varsaw-lint: allow(rule[, rule...]) <reason text>
 * A missing or empty reason is a finding — exemptions must say why.
 */
void
collectAnnotations(SourceFile &f)
{
    static const std::string kMarker = "varsaw-lint:";
    std::size_t pos = 0;
    while ((pos = f.raw.find(kMarker, pos)) != std::string::npos) {
        const int line = f.lineOf(pos);
        std::size_t p = pos + kMarker.size();
        while (p < f.raw.size() && f.raw[p] == ' ')
            ++p;
        // Prose that merely mentions the marker (docs, this file)
        // is not an annotation; only allow(...) forms are parsed,
        // and a malformed allow IS flagged.
        if (f.raw.compare(p, 5, "allow") != 0) {
            pos += kMarker.size();
            continue;
        }
        bool wholeFile = false;
        if (f.raw.compare(p, 11, "allow-file(") == 0) {
            wholeFile = true;
            p += 11;
        } else if (f.raw.compare(p, 6, "allow(") == 0) {
            p += 6;
        } else {
            f.annotationFindings.push_back(
                {f.path, line, "annotation",
                 "malformed varsaw-lint annotation (expected "
                 "allow(rule) reason or allow-file(rule) reason)"});
            pos += kMarker.size();
            continue;
        }
        const std::size_t close = f.raw.find(')', p);
        const std::size_t eol = f.raw.find('\n', p);
        if (close == std::string::npos ||
            (eol != std::string::npos && close > eol)) {
            f.annotationFindings.push_back(
                {f.path, line, "annotation",
                 "unterminated allow(...) annotation"});
            pos += kMarker.size();
            continue;
        }
        // Rule list.
        std::vector<std::string> rules;
        std::string cur;
        for (std::size_t i = p; i < close; ++i) {
            const char c = f.raw[i];
            if (c == ',') {
                rules.push_back(cur);
                cur.clear();
            } else if (c != ' ') {
                cur += c;
            }
        }
        if (!cur.empty())
            rules.push_back(cur);
        // Reason: rest of the line after ')'.
        std::string reason = f.raw.substr(
            close + 1, (eol == std::string::npos ? f.raw.size()
                                                 : eol) -
                           (close + 1));
        reason.erase(
            std::remove(reason.begin(), reason.end(), '\r'),
            reason.end());
        std::size_t rb = reason.find_first_not_of(" \t-:");
        if (rules.empty() || rb == std::string::npos) {
            f.annotationFindings.push_back(
                {f.path, line, "annotation",
                 "allow() annotation needs a rule id and a reason "
                 "(// varsaw-lint: allow(rule) why it is safe)"});
        } else {
            for (const std::string &r : rules) {
                if (wholeFile)
                    f.allowFile.insert(r);
                else
                    f.allowLines[r].insert(line);
            }
        }
        pos = close;
    }
}

} // namespace

int
SourceFile::lineOf(std::size_t pos) const
{
    return 1 + static_cast<int>(std::count(
                   raw.begin(),
                   raw.begin() + static_cast<std::ptrdiff_t>(
                                     std::min(pos, raw.size())),
                   '\n'));
}

bool
SourceFile::allowed(const std::string &rule, int line) const
{
    if (allowFile.count(rule))
        return true;
    auto it = allowLines.find(rule);
    if (it == allowLines.end())
        return false;
    // The annotation's own line, or an annotation on the line above.
    return it->second.count(line) || it->second.count(line - 1);
}

SourceFile
scanFile(const std::string &absPath, const std::string &relPath)
{
    std::ifstream in(absPath, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + absPath);
    std::ostringstream buf;
    buf << in.rdbuf();

    SourceFile f;
    f.path = relPath;
    f.raw = buf.str();
    collectAnnotations(f);
    f.stripped = stripSource(f.raw);

    std::string line;
    std::istringstream ls(f.stripped);
    while (std::getline(ls, line))
        f.lines.push_back(line);
    return f;
}

bool
pathUnder(const std::string &path, const std::string &prefix)
{
    if (path == prefix)
        return true;
    return path.size() > prefix.size() &&
        path.compare(0, prefix.size(), prefix) == 0 &&
        path[prefix.size()] == '/';
}

std::vector<const SourceFile *>
Tree::under(const std::vector<std::string> &prefixes) const
{
    std::vector<const SourceFile *> out;
    for (const SourceFile &f : files)
        for (const std::string &p : prefixes)
            if (pathUnder(f.path, p)) {
                out.push_back(&f);
                break;
            }
    return out;
}

} // namespace varsaw::lint
