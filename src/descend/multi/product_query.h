/**
 * @file
 * Set-compiled execution artifact: ONE automaton for the whole query set.
 *
 * Simulating N independent automata per structural event costs O(N) per
 * event, and every skip would need all N to agree. QuerySetCompiler instead
 * factors the deduplicated query set into a *trie* of shared selector
 * prefixes over the union Alphabet and lowers that trie to a single
 * deterministic product automaton:
 *
 *   - Trie nodes are selector prefixes; edges carry the selector kind
 *     (child label / child wildcard / child index / descendant label /
 *     descendant wildcard) keyed by shared-alphabet symbols, so `$.a.x`
 *     and `$.a..y` share the `$.a` prefix state. A trailing filter is a
 *     child wildcard edge, as in CompiledQuery; its predicate is the
 *     engine's report-time gate, so `$.a[?(@.x)]` and `$.a.*` accept at
 *     the same node.
 *   - Descendant recursion is modelled per-node with a companion *hub*
 *     state: a node with descendant edges contributes its hub to every
 *     successor (the "search goes on below" component), and the hub
 *     self-loops while firing only the node's descendant edges. Child
 *     edges never fire from hubs, which is exactly why merging prefixes
 *     of different queries stays sound.
 *   - Subset construction over trie nodes + hubs yields the product DFA;
 *     its states carry *subscriber bitsets* (SubscriberSet over distinct
 *     query ids — the accept set), interned into a table because accept
 *     sets repeat heavily. Moore minimization (initial partition: accept
 *     sets) then collapses equivalent states — among else re-establishing
 *     the waiting/head-skip shape of `$..label`-headed sets.
 *
 * Per-state properties mirror CompiledQuery exactly (automaton/compiled.h,
 * paper Section 3.3), but computed on the union automaton they become
 * set-level skip decisions: `rejecting` is the precomputed "can anything
 * in the whole set match below" bit, so one child-skip test replaces N
 * per-query votes, and `unitary`/`waiting` certify sibling/within skips
 * for every subscriber at once. Per-event cost is one transition,
 * whatever N is.
 *
 * Transitions are stored as per-state exception lists over a fallback (the
 * OTHER successor): union alphabets of 1k-query sets have thousands of
 * symbols, so dense rows would waste megabytes while nearly every row is
 * "fallback everywhere except this prefix's few live symbols".
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "descend/automaton/compiled.h"
#include "descend/multi/multi_query.h"
#include "descend/multi/subscriber_set.h"

namespace descend::multi {

class ProductAutomaton {
public:
    /** An empty automaton; meaningful instances come from the compiler. */
    ProductAutomaton() = default;

    int num_states() const noexcept { return num_states_; }
    int initial_state() const noexcept { return initial_; }

    /** Successor of @p state on @p symbol (shared-alphabet space). */
    int transition(int state, int symbol) const noexcept
    {
        const std::uint32_t begin = ex_begin_[static_cast<std::size_t>(state)];
        const std::uint32_t end = ex_begin_[static_cast<std::size_t>(state) + 1];
        // Exception lists are sorted by symbol and tiny (a prefix's live
        // labels); linear probing beats binary search at these sizes.
        for (std::uint32_t e = begin; e < end; ++e) {
            if (ex_symbols_[e] == symbol) {
                return ex_targets_[e];
            }
            if (ex_symbols_[e] > symbol) {
                break;
            }
        }
        return fallback_[static_cast<std::size_t>(state)];
    }

    /** The fallback transition (over the OTHER symbol). */
    int fallback(int state) const noexcept
    {
        return fallback_[static_cast<std::size_t>(state)];
    }

    const automaton::StateFlags& flags(int state) const noexcept
    {
        return flags_[static_cast<std::size_t>(state)];
    }

    /** See CompiledQuery::row_class: frame pushes happen only on class
     *  changes. */
    int row_class(int state) const noexcept
    {
        return row_class_[static_cast<std::size_t>(state)];
    }

    /** The unique live label a waiting state waits for; -1 otherwise. */
    int waiting_symbol(int state) const noexcept
    {
        return waiting_symbol_[static_cast<std::size_t>(state)];
    }

    /** Index into accept_set() of the state's subscribers; 0 is always the
     *  empty set, so `accept_set_id(s) != 0` iff the state accepts. */
    int accept_set_id(int state) const noexcept
    {
        return accept_id_[static_cast<std::size_t>(state)];
    }

    /** Interned subscriber bitset (over DISTINCT query ids). */
    const SubscriberSet& accept_set(int set_id) const
    {
        return accept_sets_[static_cast<std::size_t>(set_id)];
    }

    /** Set-level head-skip label: present iff the initial state waits on a
     *  concrete label and accepts nothing (so skipped lead-in is invisible
     *  to every subscriber). Escaped comparison form. */
    const std::optional<std::string>& head_skip_label() const noexcept
    {
        return head_skip_label_;
    }

    /** True when a compiled query uses index selectors (runs then track
     *  array-entry counters). */
    bool has_indices() const noexcept { return has_indices_; }

private:
    friend class QuerySetCompiler;

    int num_states_ = 0;
    int initial_ = 0;
    bool has_indices_ = false;
    /** CSR exception lists: state s owns [ex_begin_[s], ex_begin_[s+1]). */
    std::vector<std::uint32_t> ex_begin_;
    std::vector<std::int32_t> ex_symbols_;
    std::vector<std::int32_t> ex_targets_;
    std::vector<std::int32_t> fallback_;
    std::vector<automaton::StateFlags> flags_;
    std::vector<std::int32_t> row_class_;
    std::vector<std::int32_t> waiting_symbol_;
    std::vector<std::int32_t> accept_id_;
    std::vector<SubscriberSet> accept_sets_;
    std::optional<std::string> head_skip_label_;
};

class QuerySetCompiler {
public:
    /**
     * Lowers the deduplicated set to its product automaton. @p max_states
     * caps subset construction (the descendant-plus-wildcard blowup of
     * Section 3.1 compounds across queries); LimitError beyond it —
     * ProductDescendEngine then splits the set into groups.
     */
    static ProductAutomaton compile(const MultiQuery& set,
                                    int max_states = 1 << 15);

    /** Lowers only the distinct queries @p ids of @p set, over the set's
     *  shared alphabet. Accept sets keep the set's distinct ids, so groups
     *  of one set report through one subscriber space. */
    static ProductAutomaton compile(const MultiQuery& set,
                                    const std::vector<int>& ids,
                                    int max_states = 1 << 15);
};

}  // namespace descend::multi
