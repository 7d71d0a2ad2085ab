/**
 * @file
 * Name tables: the one place each vocabulary's spellings live.
 *
 * Every enum a spec file, CSV or command line can spell (PDN kinds,
 * C-states, simulation modes, ...) has one constexpr NameTable,
 * declared as the nameTable<E> specialization next to the enum, in
 * enumerator order and guarded by static_assert(inEnumOrder(...)).
 * The helpers below then do every job a hand-written speller or
 * parser would: nameOf/toString print, parseName parses, namesOf
 * lists the alternatives, and unknownName words the one error every
 * lookup raises:
 *
 *     unknown <what> "<name>" (expected one of <a>, <b>, ...)
 *
 * The JSON binder (nameFromJson, config/json.hh) raises the same
 * error at the spec value's file:line:col position. Named catalogues
 * built at run time (platform presets, battery profiles, library
 * traces) are ranges of objects with a `name` member, or of plain
 * strings, and go through the same helpers.
 */

#ifndef PDNSPOT_COMMON_NAMES_HH
#define PDNSPOT_COMMON_NAMES_HH

#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <type_traits>

namespace pdnspot
{

[[noreturn]] void fatal(const std::string &msg); // common/logging.hh

/** One table row: a value and its canonical spelling. */
template <typename T>
struct Named
{
    T value;
    const char *name;
};

/** A vocabulary: its noun for error messages and its rows. */
template <typename T, size_t N>
struct NameTable
{
    const char *what; ///< e.g. "PDN kind", "C-state"
    std::array<Named<T>, N> rows;

    constexpr auto begin() const { return rows.begin(); }
    constexpr auto end() const { return rows.end(); }
};

/**
 * The name table of enum E; each vocabulary specializes it next to
 * its enum (the primary marks "no table").
 */
template <typename E>
inline constexpr bool nameTable = false;

/** Enums with a name table. */
template <typename E>
concept NamedEnum =
    std::is_enum_v<E> &&
    !std::is_same_v<std::remove_cv_t<decltype(nameTable<E>)>, bool>;

/** True when row i holds enumerator i, so nameOf can index. */
template <typename E, size_t N>
constexpr bool
inEnumOrder(const NameTable<E, N> &table)
{
    for (size_t i = 0; i < N; ++i) {
        if (static_cast<size_t>(table.rows[i].value) != i)
            return false;
    }
    return true;
}

/** The values of a table, in row order. */
template <typename T, size_t N>
constexpr std::array<T, N>
valuesOf(const NameTable<T, N> &table)
{
    std::array<T, N> out{};
    for (size_t i = 0; i < N; ++i)
        out[i] = table.rows[i].value;
    return out;
}

/** The canonical spelling of `value`. */
template <NamedEnum E>
constexpr const char *
nameOf(E value)
{
    return nameTable<E>.rows[static_cast<size_t>(value)].name;
}

/** nameOf as a std::string. */
template <NamedEnum E>
std::string
toString(E value)
{
    return nameOf(value);
}

/** A row's spelling: its `name` member or accessor, or the row itself. */
template <typename Row>
std::string_view
rowName(const Row &row)
{
    if constexpr (std::is_convertible_v<const Row &, std::string_view>)
        return row;
    else if constexpr (requires { row.name(); })
        return row.name();
    else
        return row.name;
}

/** The row of `range` spelled `name`, or nullptr. */
template <typename Range>
auto
findName(const Range &range, std::string_view name)
    -> decltype(&*std::begin(range))
{
    for (const auto &row : range) {
        if (rowName(row) == name)
            return &row;
    }
    return nullptr;
}

/** Every spelling of `range`, in order: "a, b, c". */
template <typename Range>
std::string
namesOf(const Range &range)
{
    std::string out;
    for (const auto &row : range) {
        if (!out.empty())
            out += ", ";
        out += rowName(row);
    }
    return out;
}

/** unknown <what> "<name>" (expected one of <namesOf(range)>). */
template <typename Range>
std::string
unknownName(const char *what, std::string_view name,
            const Range &range)
{
    return "unknown " + std::string(what) + " \"" + std::string(name) +
           "\" (expected one of " + namesOf(range) + ")";
}

/** The enumerator spelled `name`; fatal() on an unknown name. */
template <NamedEnum E>
E
parseName(std::string_view name)
{
    constexpr const auto &table = nameTable<E>;
    if (const auto *row = findName(table, name))
        return row->value;
    fatal(unknownName(table.what, name, table));
}

/** The catalogue entry named `name`; fatal() on an unknown name. */
template <typename Range>
const auto &
parseName(const Range &range, std::string_view name, const char *what)
{
    if (const auto *row = findName(range, name))
        return *row;
    fatal(unknownName(what, name, range));
}

} // namespace pdnspot

#endif // PDNSPOT_COMMON_NAMES_HH
