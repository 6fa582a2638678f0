/**
 * @file
 * Minimal TOML-subset parser for tools/lint/rules.toml.
 *
 * Supported grammar (everything the manifest needs, nothing more):
 *   - `# comment` lines and trailing comments
 *   - `[section.name]` headers (dotted names kept verbatim)
 *   - `key = "string"`, `key = true|false`
 *   - `key = ["a", "b", ...]`, which may span multiple lines until
 *     the closing bracket
 * Anything else is a hard error: a manifest typo must fail the lint
 * run loudly, never silently relax a rule.
 */

#include "lint.hh"

#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace varsaw::lint {

namespace {

std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b &&
           std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

/** Strip a trailing # comment (quote-aware). */
std::string
stripComment(const std::string &line)
{
    bool inString = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        if (c == '"')
            inString = !inString;
        else if (c == '#' && !inString)
            return line.substr(0, i);
    }
    return line;
}

[[noreturn]] void
fail(const std::string &path, int line, const std::string &what)
{
    std::ostringstream os;
    os << path << ":" << line << ": manifest error: " << what;
    throw std::runtime_error(os.str());
}

/** Parse one scalar token: quoted string or true/false. */
std::string
parseScalar(const std::string &tok, const std::string &path,
            int line)
{
    const std::string t = trim(tok);
    if (t.size() >= 2 && t.front() == '"' && t.back() == '"')
        return t.substr(1, t.size() - 2);
    if (t == "true" || t == "false")
        return t;
    fail(path, line, "expected quoted string or bool, got '" + t +
                         "'");
}

/** Split a bracket-free array body on commas (quote-aware). */
std::vector<std::string>
parseArrayBody(const std::string &body, const std::string &path,
               int line)
{
    std::vector<std::string> out;
    std::string cur;
    bool inString = false;
    for (char c : body) {
        if (c == '"')
            inString = !inString;
        if (c == ',' && !inString) {
            if (!trim(cur).empty())
                out.push_back(parseScalar(cur, path, line));
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!trim(cur).empty())
        out.push_back(parseScalar(cur, path, line));
    return out;
}

} // namespace

std::vector<std::string>
Manifest::list(const std::string &section,
               const std::string &key) const
{
    auto s = sections.find(section);
    if (s == sections.end())
        return {};
    auto k = s->second.find(key);
    if (k == s->second.end())
        return {};
    return k->second;
}

std::string
Manifest::str(const std::string &section, const std::string &key,
              const std::string &fallback) const
{
    const auto v = list(section, key);
    return v.empty() ? fallback : v.front();
}

bool
Manifest::boolean(const std::string &section,
                  const std::string &key, bool fallback) const
{
    const auto v = list(section, key);
    if (v.empty())
        return fallback;
    return v.front() == "true";
}

std::vector<std::string>
Manifest::subsections(const std::string &prefix) const
{
    std::vector<std::string> out;
    const std::string want = prefix + ".";
    for (const auto &[name, _] : sections)
        if (name.rfind(want, 0) == 0)
            out.push_back(name.substr(want.size()));
    return out;
}

Manifest
parseManifest(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open manifest: " + path);

    Manifest m;
    std::string section;
    std::string line;
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        const int startLine = lineNo;
        std::string text = trim(stripComment(line));
        if (text.empty())
            continue;
        if (text.front() == '[') {
            if (text.back() != ']')
                fail(path, lineNo, "unterminated section header");
            section = trim(text.substr(1, text.size() - 2));
            if (section.empty())
                fail(path, lineNo, "empty section name");
            m.sections[section]; // created even if empty
            continue;
        }
        const std::size_t eq = text.find('=');
        if (eq == std::string::npos)
            fail(path, lineNo, "expected 'key = value'");
        const std::string key = trim(text.substr(0, eq));
        std::string value = trim(text.substr(eq + 1));
        if (key.empty())
            fail(path, lineNo, "empty key");
        if (section.empty())
            fail(path, lineNo, "entry before any [section]");

        if (!value.empty() && value.front() == '[') {
            // Array, possibly spanning lines until the closing ']'.
            while (value.find(']') == std::string::npos) {
                std::string more;
                if (!std::getline(in, more))
                    fail(path, startLine, "unterminated array");
                ++lineNo;
                value += ' ';
                value += trim(stripComment(more));
            }
            const std::size_t close = value.find(']');
            if (!trim(value.substr(close + 1)).empty())
                fail(path, lineNo, "trailing text after array");
            m.sections[section][key] = parseArrayBody(
                value.substr(1, close - 1), path, startLine);
        } else {
            m.sections[section][key] = {
                parseScalar(value, path, startLine)};
        }
    }
    return m;
}

} // namespace varsaw::lint
