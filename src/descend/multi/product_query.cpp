#include "descend/multi/product_query.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <queue>
#include <utility>

#include "descend/util/errors.h"

namespace descend::multi {
namespace {

/**
 * Trie over the distinct queries' selector sequences. Edges are keyed by
 * (selector kind, shared-alphabet symbol set); wildcards carry an empty
 * set. A slice or union selector owns ONE edge guarded by several symbols
 * (the interval symbols its range covers / its member labels), all leading
 * to the same target — the whole-symbol-guard invariant of the alphabet
 * (nfa.h) makes this exact. Two queries share a node exactly when their
 * selector prefixes coincide after canonicalization.
 */
struct TrieEdge {
    query::SelectorKind kind;
    std::vector<int> symbols;  // shared symbols; empty for wildcards
    int target;                // trie node id
};

struct TrieNode {
    std::vector<TrieEdge> edges;
    /** Distinct query ids whose last selector lands here. */
    std::vector<int> accepts;
    /** Companion hub NFA-state id when any edge is descendant-kind. */
    int hub = -1;
};

/**
 * One NFA state's contribution to subset successors, pre-factored into
 * the component fired on EVERY symbol (wildcard edges, hub entry, hub
 * self-loop) and the per-symbol concrete additions. A subset's fallback
 * row is the union of `always` parts; concrete symbols add on top.
 */
struct NfaRow {
    std::vector<int> always;
    std::vector<std::pair<int, int>> by_symbol;  // (shared symbol, target)
};

/** Raw (unminimized) product DFA rows, exceptions sorted by symbol. */
struct RawState {
    int fallback = 0;
    std::vector<std::pair<int, int>> exceptions;  // (symbol, target)
    int accept_id = 0;
};

std::vector<TrieNode> build_trie(const MultiQuery& set,
                                 const std::vector<int>& ids)
{
    std::vector<TrieNode> trie(1);
    for (int d : ids) {
        const auto& selectors =
            set.distinct(static_cast<std::size_t>(d)).source().selectors();
        int node = 0;
        for (const query::Selector& selector : selectors) {
            if (selector.kind == query::SelectorKind::kRoot) {
                continue;
            }
            // A filter advances like a child wildcard; its predicate runs
            // at report time (ProductDescendEngine's per-query gate).
            const query::SelectorKind kind =
                selector.kind == query::SelectorKind::kChildFilter
                    ? query::SelectorKind::kChildWildcard
                    : selector.kind;
            std::vector<int> symbols;
            switch (kind) {
                case query::SelectorKind::kChild:
                case query::SelectorKind::kDescendant:
                    symbols.push_back(
                        set.alphabet().label_symbol(selector.label_escaped));
                    break;
                case query::SelectorKind::kChildIndex:
                    symbols.push_back(
                        set.alphabet().index_symbol(selector.index));
                    break;
                case query::SelectorKind::kChildSlice:
                    // An empty range yields no symbols: the edge then fires
                    // on nothing and the suffix below it is unreachable —
                    // exactly the unsatisfiable-slice semantics.
                    symbols = set.alphabet().symbols_in_range(
                        selector.slice_lo, selector.slice_hi);
                    break;
                case query::SelectorKind::kChildUnion:
                    for (const query::LabelRef& member : selector.union_members) {
                        symbols.push_back(
                            set.alphabet().label_symbol(member.escaped));
                    }
                    break;
                default:
                    break;
            }
            int next = -1;
            for (const TrieEdge& edge : trie[static_cast<std::size_t>(node)].edges) {
                if (edge.kind == kind && edge.symbols == symbols) {
                    next = edge.target;
                    break;
                }
            }
            if (next < 0) {
                next = static_cast<int>(trie.size());
                trie[static_cast<std::size_t>(node)].edges.push_back(
                    {kind, symbols, next});
                trie.emplace_back();
            }
            node = next;
        }
        trie[static_cast<std::size_t>(node)].accepts.push_back(d);
    }
    return trie;
}

std::vector<NfaRow> build_rows(std::vector<TrieNode>& trie)
{
    // Hubs get ids after the trie nodes. A hub models "some descendant
    // edge of this node keeps searching below": it persists through any
    // transition and fires only the node's descendant edges — child edges
    // stay pinned to their exact depth, which keeps prefix sharing sound.
    int next_id = static_cast<int>(trie.size());
    for (TrieNode& node : trie) {
        for (const TrieEdge& edge : node.edges) {
            if (edge.kind == query::SelectorKind::kDescendant ||
                edge.kind == query::SelectorKind::kDescendantWildcard) {
                node.hub = next_id++;
                break;
            }
        }
    }

    std::vector<NfaRow> rows(static_cast<std::size_t>(next_id));
    for (std::size_t u = 0; u < trie.size(); ++u) {
        const TrieNode& node = trie[u];
        NfaRow& row = rows[u];
        if (node.hub >= 0) {
            row.always.push_back(node.hub);
        }
        for (const TrieEdge& edge : node.edges) {
            switch (edge.kind) {
                case query::SelectorKind::kChildWildcard:
                case query::SelectorKind::kDescendantWildcard:
                    row.always.push_back(edge.target);
                    break;
                case query::SelectorKind::kChild:
                case query::SelectorKind::kDescendant:
                case query::SelectorKind::kChildIndex:
                case query::SelectorKind::kChildSlice:
                case query::SelectorKind::kChildUnion:
                    // One arc per guarding symbol, all into the same
                    // target: subset construction dissolves the fan-out.
                    for (int symbol : edge.symbols) {
                        row.by_symbol.emplace_back(symbol, edge.target);
                    }
                    break;
                default:
                    break;
            }
        }
        if (node.hub >= 0) {
            NfaRow& hub_row = rows[static_cast<std::size_t>(node.hub)];
            hub_row.always.push_back(node.hub);
            for (const TrieEdge& edge : node.edges) {
                if (edge.kind == query::SelectorKind::kDescendantWildcard) {
                    hub_row.always.push_back(edge.target);
                } else if (edge.kind == query::SelectorKind::kDescendant) {
                    for (int symbol : edge.symbols) {
                        hub_row.by_symbol.emplace_back(symbol, edge.target);
                    }
                }
            }
        }
    }
    return rows;
}

void sort_unique(std::vector<int>& v)
{
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
}

/** Moore minimization over the exception-list representation. Initial
 *  partition: accept-set ids. A (symbol -> block) pair is omitted from a
 *  state's signature when it coincides with the fallback block, so two
 *  states compare equal iff their full transition rows agree block-wise. */
std::vector<int> minimize_blocks(const std::vector<RawState>& states)
{
    std::size_t n = states.size();
    std::vector<int> block(n);
    {
        std::map<int, int> accept_blocks;
        for (std::size_t s = 0; s < n; ++s) {
            auto [it, inserted] = accept_blocks.emplace(
                states[s].accept_id, static_cast<int>(accept_blocks.size()));
            block[s] = it->second;
        }
    }
    bool changed = true;
    while (changed) {
        using Signature = std::vector<int>;
        std::map<Signature, int> next_ids;
        std::vector<int> next_block(n);
        for (std::size_t s = 0; s < n; ++s) {
            Signature sig;
            sig.push_back(block[s]);
            int fallback_block = block[static_cast<std::size_t>(states[s].fallback)];
            sig.push_back(fallback_block);
            for (const auto& [symbol, target] : states[s].exceptions) {
                int target_block = block[static_cast<std::size_t>(target)];
                if (target_block != fallback_block) {
                    sig.push_back(symbol);
                    sig.push_back(target_block);
                }
            }
            auto [it, inserted] =
                next_ids.emplace(std::move(sig), static_cast<int>(next_ids.size()));
            next_block[s] = it->second;
        }
        changed = next_block != block;
        block = std::move(next_block);
    }
    return block;
}

}  // namespace

ProductAutomaton QuerySetCompiler::compile(const MultiQuery& set, int max_states)
{
    std::vector<int> ids(set.num_distinct());
    std::iota(ids.begin(), ids.end(), 0);
    return compile(set, ids, max_states);
}

ProductAutomaton QuerySetCompiler::compile(const MultiQuery& set,
                                           const std::vector<int>& ids,
                                           int max_states)
{
    std::vector<TrieNode> trie = build_trie(set, ids);
    std::vector<NfaRow> rows = build_rows(trie);

    // Accept-set interning; id 0 is the empty set so `!= 0` means accepts.
    std::vector<SubscriberSet> accept_sets{SubscriberSet(set.num_distinct())};
    std::map<std::vector<std::uint64_t>, int> accept_ids{
        {accept_sets[0].words(), 0}};

    // Subset construction over trie nodes + hubs, worklist order.
    std::map<std::vector<int>, int> subset_ids;
    std::vector<std::vector<int>> subsets;
    std::vector<RawState> raw;
    std::queue<int> worklist;
    auto intern = [&](std::vector<int> subset) {
        auto [it, inserted] =
            subset_ids.emplace(std::move(subset), static_cast<int>(subsets.size()));
        if (inserted) {
            if (static_cast<int>(subsets.size()) >= max_states) {
                throw LimitError(
                    "product automaton exceeds the state cap for this query set");
            }
            subsets.push_back(it->first);
            worklist.push(it->second);
        }
        return it->second;
    };
    intern({0});

    while (!worklist.empty()) {
        int id = worklist.front();
        worklist.pop();
        std::vector<int> subset = subsets[static_cast<std::size_t>(id)];

        std::vector<int> base;
        std::map<int, std::vector<int>> symbol_adds;
        SubscriberSet accepts(set.num_distinct());
        for (int member : subset) {
            const NfaRow& row = rows[static_cast<std::size_t>(member)];
            base.insert(base.end(), row.always.begin(), row.always.end());
            for (const auto& [symbol, target] : row.by_symbol) {
                symbol_adds[symbol].push_back(target);
            }
            if (member < static_cast<int>(trie.size())) {
                for (int d : trie[static_cast<std::size_t>(member)].accepts) {
                    accepts.set(static_cast<std::size_t>(d));
                }
            }
        }
        sort_unique(base);

        RawState state;
        state.fallback = intern(base);
        for (auto& [symbol, adds] : symbol_adds) {
            std::vector<int> successor = base;
            successor.insert(successor.end(), adds.begin(), adds.end());
            sort_unique(successor);
            if (successor == base) {
                continue;  // additions already implied by the fallback row
            }
            state.exceptions.emplace_back(symbol, intern(std::move(successor)));
        }
        auto [it, inserted] = accept_ids.emplace(
            accepts.words(), static_cast<int>(accept_sets.size()));
        if (inserted) {
            accept_sets.push_back(std::move(accepts));
        }
        state.accept_id = it->second;
        if (static_cast<std::size_t>(id) >= raw.size()) {
            raw.resize(static_cast<std::size_t>(id) + 1);
        }
        raw[static_cast<std::size_t>(id)] = std::move(state);
    }
    raw.resize(subsets.size());

    // Minimize: collapses equal behaviours across the subset lattice — in
    // particular all dead subsets into one trash state, and `$..x`-headed
    // initial shapes back into self-looping waiting states.
    std::vector<int> block = minimize_blocks(raw);
    int num_blocks = 0;
    std::vector<int> representative;
    {
        std::vector<int> remap(raw.size(), -1);
        for (std::size_t s = 0; s < raw.size(); ++s) {
            if (remap[static_cast<std::size_t>(block[s])] < 0) {
                remap[static_cast<std::size_t>(block[s])] = num_blocks++;
                representative.push_back(static_cast<int>(s));
            }
        }
        for (std::size_t s = 0; s < raw.size(); ++s) {
            block[s] = remap[static_cast<std::size_t>(block[s])];
        }
    }

    ProductAutomaton out;
    out.num_states_ = num_blocks;
    out.initial_ = block[0];
    for (int d : ids) {
        out.has_indices_ = out.has_indices_ ||
                           set.distinct(static_cast<std::size_t>(d)).has_indices();
    }
    out.fallback_.resize(static_cast<std::size_t>(num_blocks));
    out.accept_id_.resize(static_cast<std::size_t>(num_blocks));
    out.ex_begin_.assign(static_cast<std::size_t>(num_blocks) + 1, 0);

    std::vector<std::vector<std::pair<int, int>>> block_exceptions(
        static_cast<std::size_t>(num_blocks));
    for (int b = 0; b < num_blocks; ++b) {
        const RawState& rep = raw[static_cast<std::size_t>(representative[b])];
        int fallback_block = block[static_cast<std::size_t>(rep.fallback)];
        out.fallback_[static_cast<std::size_t>(b)] = fallback_block;
        out.accept_id_[static_cast<std::size_t>(b)] = rep.accept_id;
        for (const auto& [symbol, target] : rep.exceptions) {
            int target_block = block[static_cast<std::size_t>(target)];
            if (target_block != fallback_block) {
                block_exceptions[static_cast<std::size_t>(b)].emplace_back(
                    symbol, target_block);
            }
        }
    }
    for (int b = 0; b < num_blocks; ++b) {
        out.ex_begin_[static_cast<std::size_t>(b) + 1] =
            out.ex_begin_[static_cast<std::size_t>(b)] +
            static_cast<std::uint32_t>(
                block_exceptions[static_cast<std::size_t>(b)].size());
    }
    out.ex_symbols_.reserve(out.ex_begin_.back());
    out.ex_targets_.reserve(out.ex_begin_.back());
    for (int b = 0; b < num_blocks; ++b) {
        for (const auto& [symbol, target] :
             block_exceptions[static_cast<std::size_t>(b)]) {
            out.ex_symbols_.push_back(symbol);
            out.ex_targets_.push_back(target);
        }
    }
    out.accept_sets_ = std::move(accept_sets);

    // Per-state properties, mirroring automaton/properties.cpp over the
    // exception-list rows (a one-step successor is the fallback or one of
    // the exception targets — exceptions cover every row entry that
    // differs from the fallback).
    const int n = num_blocks;
    std::vector<bool> productive(static_cast<std::size_t>(n), false);
    for (int s = 0; s < n; ++s) {
        productive[static_cast<std::size_t>(s)] =
            out.accept_id_[static_cast<std::size_t>(s)] != 0;
    }
    bool changed = true;
    while (changed) {
        changed = false;
        for (int s = 0; s < n; ++s) {
            if (productive[static_cast<std::size_t>(s)]) {
                continue;
            }
            bool now = productive[static_cast<std::size_t>(
                out.fallback_[static_cast<std::size_t>(s)])];
            for (std::uint32_t e = out.ex_begin_[static_cast<std::size_t>(s)];
                 !now && e < out.ex_begin_[static_cast<std::size_t>(s) + 1];
                 ++e) {
                now = productive[static_cast<std::size_t>(out.ex_targets_[e])];
            }
            if (now) {
                productive[static_cast<std::size_t>(s)] = true;
                changed = true;
            }
        }
    }

    const automaton::Alphabet& alphabet = set.alphabet();
    out.flags_.resize(static_cast<std::size_t>(n));
    out.waiting_symbol_.assign(static_cast<std::size_t>(n), -1);
    for (int s = 0; s < n; ++s) {
        automaton::StateFlags& flags = out.flags_[static_cast<std::size_t>(s)];
        const int fallback = out.fallback_[static_cast<std::size_t>(s)];
        const std::uint32_t begin = out.ex_begin_[static_cast<std::size_t>(s)];
        const std::uint32_t end =
            out.ex_begin_[static_cast<std::size_t>(s) + 1];
        const bool fallback_accepting =
            out.accept_id_[static_cast<std::size_t>(fallback)] != 0;

        flags.accepting = out.accept_id_[static_cast<std::size_t>(s)] != 0;
        flags.rejecting = !productive[static_cast<std::size_t>(s)];

        flags.internal = !fallback_accepting;
        flags.colon_toggle = fallback_accepting;
        flags.comma_toggle = fallback_accepting;
        int live_labels = 0;
        int live_indices = 0;
        int unique_live_label = -1;
        bool unique_target_productive = false;
        for (std::uint32_t e = begin; e < end; ++e) {
            const int symbol = out.ex_symbols_[e];
            const int target = out.ex_targets_[e];
            const bool target_accepting =
                out.accept_id_[static_cast<std::size_t>(target)] != 0;
            if (target_accepting) {
                flags.internal = false;
            }
            if (alphabet.symbol_is_label(symbol)) {
                ++live_labels;
                unique_live_label = symbol;
                unique_target_productive = productive[static_cast<std::size_t>(target)];
                flags.colon_toggle = flags.colon_toggle || target_accepting;
            } else {
                ++live_indices;
                flags.comma_toggle = flags.comma_toggle || target_accepting;
            }
        }

        flags.unitary = !flags.rejecting &&
                        !productive[static_cast<std::size_t>(fallback)] &&
                        live_labels == 1 && live_indices == 0 &&
                        unique_target_productive;
        flags.waiting = fallback == s && live_labels == 1 && live_indices == 0;
        if (flags.waiting) {
            out.waiting_symbol_[static_cast<std::size_t>(s)] =
                unique_live_label;
        }
    }

    // Row classes over (fallback, exception list) — with exceptions pruned
    // against the fallback these determine the full transition row.
    out.row_class_.resize(static_cast<std::size_t>(n));
    {
        std::map<std::vector<int>, int> seen_rows;
        for (int s = 0; s < n; ++s) {
            std::vector<int> row;
            row.push_back(out.fallback_[static_cast<std::size_t>(s)]);
            for (std::uint32_t e = out.ex_begin_[static_cast<std::size_t>(s)];
                 e < out.ex_begin_[static_cast<std::size_t>(s) + 1]; ++e) {
                row.push_back(out.ex_symbols_[e]);
                row.push_back(out.ex_targets_[e]);
            }
            auto [it, inserted] =
                seen_rows.emplace(std::move(row), static_cast<int>(seen_rows.size()));
            out.row_class_[static_cast<std::size_t>(s)] = it->second;
        }
    }

    const automaton::StateFlags& initial_flags =
        out.flags_[static_cast<std::size_t>(out.initial_)];
    if (initial_flags.waiting && !initial_flags.accepting) {
        out.head_skip_label_ = alphabet.label(
            out.waiting_symbol_[static_cast<std::size_t>(out.initial_)]);
    }
    return out;
}

}  // namespace descend::multi
