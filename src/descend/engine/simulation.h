/**
 * @file
 * The paper's main algorithm (Section 3.4) and the run sequence around it,
 * shared by every engine that simulates ONE automaton per structural event.
 * Internal to the library (descend.h does not include it).
 *
 * Simulation<Automaton, Reporter> is the depth-stack simulation itself.
 *  - Automaton supplies initial_state(), transition(), flags(), row_class(),
 *    waiting_symbol() and head_skip_label() over a shared Alphabet:
 *    DescendEngine instantiates it over a CompiledQuery, the product
 *    engine over each ProductAutomaton group of the set.
 *  - Reporter receives every match as report(accepting_state, offset) and
 *    returns false when a match limit trips. How an accepting state turns
 *    into sink calls (a filter gate and one counter for a single query; a
 *    subscriber fan-out with per-query filter gates and counters for a
 *    set) is the only thing the two engines do differently.
 *
 * run_document() is the sequence both engines wrap around their
 * simulation (the product engine once per group): preflight, governance,
 * the O(1) `$` path, the validator, head-skip or the main loop, the
 * trailing-content check, the verdict, the governance tally and the block
 * accountant's books.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "descend/automaton/compiled.h"
#include "descend/engine/api.h"
#include "descend/engine/label_search.h"
#include "descend/engine/structural_iterator.h"
#include "descend/engine/validation.h"
#include "descend/obs/accounting.h"
#include "descend/obs/run_stats.h"
#include "descend/util/bit_stack.h"
#include "descend/util/budget.h"
#include "descend/util/inline_vector.h"
#include "descend/util/utf8.h"

namespace descend {

/** A sparse depth-stack frame: the state to restore and the depth at which
 *  to restore it (paper Section 3.2). */
struct DepthFrame {
    int state;
    int depth;
};

/** Inline frame capacity mirrors the paper's SmallVec bound: the stack
 *  lives on the thread's stack up to 128 frames. */
using DepthStack = InlineVector<DepthFrame, 128>;

/** Resolves the symbol of the label before @p pos, validating the label's
 *  bytes (invalid UTF-8 sets @p status unless it already holds an earlier
 *  problem); nullopt for the array-entry/artificial label. */
inline std::optional<int> label_symbol_before(const StructuralIterator& iter,
                                              const automaton::Alphabet& alphabet,
                                              std::size_t pos, EngineStatus& status)
{
    auto label = iter.label_before(pos);
    if (!label.has_value()) {
        return std::nullopt;
    }
    if (!util::is_valid_utf8(*label) && status.ok()) {
        status = {StatusCode::kInvalidUtf8InLabel,
                  static_cast<std::size_t>(
                      reinterpret_cast<const std::uint8_t*>(label->data()) -
                      iter.data())};
    }
    return alphabet.label_symbol(*label);
}

template <typename Automaton, typename Reporter>
class Simulation {
public:
    /** @param counting entry counters are needed (index selectors).
     *  @param budget the run's governance (null when inactive); threaded
     *  into the pipelines run_head_skip constructs itself.
     *  @param reporter_args constructor arguments of the Reporter, which
     *  the simulation owns for the run. */
    template <typename... ReporterArgs>
    Simulation(const Automaton& dfa, const automaton::Alphabet& alphabet,
               bool counting, const EngineOptions& options, RunStats& stats,
               const RunBudget* budget, ReporterArgs&&... reporter_args)
        : dfa_(dfa),
          alphabet_(alphabet),
          options_(options),
          stats_(stats),
          budget_(budget),
          other_(alphabet.other_symbol()),
          counting_(counting),
          reporter_(std::forward<ReporterArgs>(reporter_args)...)
    {
    }

    /** First problem encountered during the run (ok when none was). */
    const EngineStatus& status() const noexcept { return status_; }

    /**
     * Simulates the automaton from the iterator's current position until
     * the enclosing element closes (depth returns to zero) or input ends.
     * @param at_document_root the first opening character is the document
     *        root, which triggers no automaton transition (the initial
     *        state *is* the root's state); head-skip subruns pass false so
     *        the value's label transition fires normally.
     */
    void run_main_loop(StructuralIterator& iter, bool at_document_root)
    {
        using Kind = StructuralIterator::Kind;
        const Automaton& dfa = dfa_;
        const automaton::Alphabet& alphabet = alphabet_;

        int state = dfa.initial_state();
        int depth = 0;
        DepthStack stack;
        BitStack kinds;
        InlineVector<std::uint64_t, 64> counts;

        if (at_document_root && dfa.flags(state).accepting) {
            // Root-accepting queries (`$`) select the whole document; the
            // root opening fires no transition for the initial state, so
            // they report up front, at the offset the O(1) `$` path
            // reports. Only a set mixing `$` with other queries gets here.
            std::size_t start = iter.first_non_ws(0);
            if (start < iter.size()) {
                report(state, start);
            }
        }

        if (!options_.leaf_skipping) {
            // Leaf-skipping ablation: iterate every structural character.
            iter.set_commas(true);
            iter.set_colons(true);
        }
        // Toggling (Section 3.4): enable colons when an object member's
        // label can take the automaton to an accepting state in one step;
        // enable commas when an array entry can (or when entry counting is
        // required by the index-selector extension). Disables are lazy
        // (stale events are stepped over; Section 4.3) except for commas
        // under counting, where a stale comma would corrupt the counters.
        auto toggle = [&](int current_state, bool is_object) {
            if (!options_.leaf_skipping) {
                return;
            }
            const automaton::StateFlags& flags = dfa.flags(current_state);
            iter.set_colons(is_object && flags.colon_toggle);
            iter.set_commas(!is_object && (flags.comma_toggle || counting_),
                            /*eager_disable=*/counting_);
        };

        // The symbol of the current array entry: a concrete index symbol
        // when the query uses index selectors, the artificial label else.
        auto array_entry_symbol = [&](std::uint64_t entry_index) {
            return counting_ ? alphabet.index_symbol(entry_index) : other_;
        };

        // The Section 4.5 extension: in a waiting, non-accepting state,
        // fast-forward straight to the awaited label anywhere within the
        // current element (or to the element's closer). Sound because every
        // skipped event would leave the state unchanged and cannot match;
        // atoms carrying the label are reported in-line. Returns with the
        // iterator positioned either at a matching member's container value
        // (depth/kinds extended to the containers opened on the way) or at
        // the element's pending closer.
        auto within_skip = [&](int current_state, int& current_depth,
                               BitStack& current_kinds) {
            int symbol = dfa.waiting_symbol(current_state);
            if (symbol < 0 || dfa.flags(current_state).accepting || counting_) {
                return;
            }
            const std::string& label = alphabet.label(symbol);
            int leaf_target = dfa.transition(current_state, symbol);
            bool leaf_accepting = dfa.flags(leaf_target).accepting;
            BitStack opened;
            int relative_depth = 1;
            while (true) {
                StructuralIterator::WithinResult found = iter.skip_to_label_within(
                    label, opened, relative_depth,
                    static_cast<std::size_t>(current_depth) - 1);
                stats_.counters.add(obs::Counter::kWithinSkips);
                if (found.outcome != StructuralIterator::WithinResult::Outcome::
                                         kFoundLabel) {
                    return;  // element closer pending (or malformed input)
                }
                std::uint8_t first = found.value_pos < iter.size()
                                         ? iter.data()[found.value_pos]
                                         : 0;
                if (first == classify::kOpenBrace ||
                    first == classify::kOpenBracket) {
                    // The main loop takes over at the value's opening; its
                    // label transition fires there. Account for the
                    // containers the scan entered on the way.
                    for (std::size_t i = 0; i < opened.size(); ++i) {
                        current_kinds.push(opened.bit_at(i));
                    }
                    current_depth += static_cast<int>(opened.size());
                    if (static_cast<std::size_t>(current_depth) >
                        options_.limits.max_depth) {
                        fail(StatusCode::kDepthLimit, found.value_pos);
                    }
                    return;
                }
                if (leaf_accepting) {
                    report(leaf_target, found.value_pos);
                    if (!status_.ok()) {
                        return;
                    }
                }
                // Atomic value: keep scanning from just past it.
            }
        };

        // First item of an array (Section 3.4, try_match_first_item): it is
        // not preceded by a comma, so atoms are matched here.
        auto try_match_first_item = [&](std::size_t open_pos, int current_state) {
            int target = dfa.transition(current_state, array_entry_symbol(0));
            if (!dfa.flags(target).accepting) {
                return;
            }
            StructuralIterator::Event following = iter.peek();
            if (following.kind == Kind::kOpening) {
                return;  // handled by the Opening case
            }
            std::size_t item = iter.first_non_ws(open_pos + 1);
            if (item >= following.pos) {
                return;  // empty array
            }
            report(target, item);
        };

        while (status_.ok()) {
            StructuralIterator::Event event = iter.next();
            if (event.kind == Kind::kNone) {
                // End of input. Any problem the iterator hit (truncated
                // string, a fast-forward running off the end, skip depth)
                // surfaces here; a still-open container means the document
                // itself ended early.
                if (!iter.status().ok()) {
                    fail(iter.status().code, iter.status().offset);
                } else if (depth > 0) {
                    fail(StatusCode::kUnbalancedStructure, iter.size());
                }
                return;
            }
            stats_.counters.add(obs::Counter::kStructuralEvents);
            switch (event.kind) {
                case Kind::kOpening: {
                    stats_.counters.add(obs::Counter::kOpeningEvents);
                    bool is_object = event.byte == classify::kOpenBrace;
                    bool root_opening = depth == 0 && at_document_root;
                    // Depth limit before the skip decision: an engine that
                    // descends (the DOM baseline) flags this opener no
                    // matter whether the subtree could match, so a skipped
                    // subtree must not slip past the limit either.
                    if (static_cast<std::size_t>(depth) >= options_.limits.max_depth) {
                        fail(StatusCode::kDepthLimit, event.pos);
                        return;
                    }
                    if (!root_opening) {
                        int symbol;
                        if (auto label = label_symbol_before(
                                iter, alphabet, event.pos, status_)) {
                            symbol = *label;
                        } else {
                            symbol = array_entry_symbol(
                                counting_ && !counts.empty() ? counts.back() : 0);
                        }
                        if (!status_.ok()) {
                            return;
                        }
                        int target = dfa.transition(state, symbol);
                        if (dfa.flags(target).rejecting && options_.child_skipping) {
                            // Skipping children: nothing below can match.
                            stats_.counters.add(obs::Counter::kChildSkips);
                            iter.skip_element(event.byte,
                                              static_cast<std::size_t>(depth));
                            continue;
                        }
                        if (target != state) {
                            // A frame is needed only when the transition
                            // changes behaviour; row-equivalent targets
                            // (differing in acceptance alone) restore to
                            // themselves, keeping the stack at O(n) for
                            // child-free queries (Section 3.2).
                            if (dfa.row_class(target) != dfa.row_class(state)) {
                                stack.push_back({state, depth});
                                stats_.counters.add(obs::Counter::kDepthStackPushes);
                                stats_.counters.raise(obs::Counter::kDepthStackMax,
                                                      stack.size());
                            }
                            state = target;
                        }
                    }
                    ++depth;
                    kinds.push(is_object);
                    if (counting_ && !is_object) {
                        counts.push_back(0);
                    }
                    // At the root opening `state` is still initial, whose
                    // acceptance was reported up front.
                    if (dfa.flags(state).accepting && !root_opening) {
                        report(state, event.pos);
                    }
                    toggle(state, is_object);
                    if (!is_object) {
                        try_match_first_item(event.pos, state);
                    }
                    if (options_.label_within_skipping) {
                        within_skip(state, depth, kinds);
                    }
                    break;
                }
                case Kind::kClosing: {
                    if (depth == 0) {
                        // A closer with nothing open: report the stray
                        // byte instead of silently truncating the run.
                        fail(StatusCode::kUnbalancedStructure, event.pos);
                        return;
                    }
                    bool closed_is_object = kinds.top();
                    if (closed_is_object != (event.byte == classify::kCloseBrace)) {
                        // '}' closing an array or ']' closing an object.
                        fail(StatusCode::kUnbalancedStructure, event.pos);
                        return;
                    }
                    --depth;
                    kinds.pop();
                    if (counting_ && !closed_is_object) {
                        counts.pop_back();
                    }
                    if (depth == 0) {
                        return;  // the (sub)document root closed
                    }
                    if (!stack.empty() && stack.back().depth == depth) {
                        // Sibling skipping is sound only when the closed
                        // child advanced the automaton (its label was the
                        // unitary state's unique live label). With child
                        // skipping disabled the engine also descends into
                        // rejected subtrees, whose frames must not trigger
                        // the skip.
                        bool child_advanced = !dfa.flags(state).rejecting;
                        state = stack.back().state;
                        stack.pop_back();
                        if (child_advanced && dfa.flags(state).unitary &&
                            options_.sibling_skipping) {
                            // Labels do not repeat among siblings: the
                            // parent holds no further matches.
                            stats_.counters.add(obs::Counter::kSiblingSkips);
                            iter.skip_to_parent_close(
                                kinds.top(), static_cast<std::size_t>(depth) - 1);
                            continue;
                        }
                    }
                    toggle(state, kinds.top());
                    if (options_.label_within_skipping) {
                        within_skip(state, depth, kinds);
                    }
                    break;
                }
                case Kind::kColon: {
                    // An object member; only act if its value is an atom
                    // (the Opening case owns container values).
                    if (kinds.empty() || iter.peek().kind == Kind::kOpening) {
                        break;
                    }
                    int symbol = other_;
                    if (auto label = label_symbol_before(iter, alphabet,
                                                         event.pos, status_)) {
                        symbol = *label;
                    }
                    if (!status_.ok()) {
                        return;
                    }
                    int target = dfa.transition(state, symbol);
                    if (dfa.flags(target).accepting) {
                        report(target, iter.first_non_ws(event.pos + 1));
                        if (dfa.flags(state).unitary && options_.sibling_skipping) {
                            // The unitary state's unique label just matched
                            // an atomic member: skip the remaining siblings.
                            stats_.counters.add(obs::Counter::kSiblingSkips);
                            iter.skip_to_parent_close(
                                kinds.top(), static_cast<std::size_t>(depth) - 1);
                        }
                    }
                    break;
                }
                case Kind::kComma: {
                    if (kinds.empty() || kinds.top()) {
                        break;  // object member separator (or malformed input)
                    }
                    if (counting_) {
                        ++counts.back();
                    }
                    StructuralIterator::Event following = iter.peek();
                    if (following.kind == Kind::kOpening ||
                        following.kind == Kind::kNone) {
                        break;
                    }
                    int target = dfa.transition(
                        state, array_entry_symbol(counting_ ? counts.back() : 0));
                    if (dfa.flags(target).accepting) {
                        report(target, iter.first_non_ws(event.pos + 1));
                    }
                    break;
                }
                case Kind::kNone:
                    // A parked iterator (budget interrupt latched at a
                    // refill) runs dry exactly like end-of-input; surface
                    // its status so the interrupt is not mistaken for a
                    // clean finish.
                    if (!iter.status().ok()) {
                        fail(iter.status().code, iter.status().offset);
                    }
                    return;
            }
        }
    }

    /** Skipping to a label (Sections 3.3-3.4): jump between occurrences of
     *  the head label, running the main loop on each subdocument only.
     *  The validator is shared by the search and the iterator: the
     *  stop/resume protocol hands blocks between the two pipelines
     *  monotonically, so each block is accounted exactly once. */
    void run_head_skip(PaddedView document, const simd::Kernels& kernels,
                       StructuralValidator* validator,
                       obs::BlockAccountant* accountant)
    {
        const Automaton& dfa = dfa_;
        const std::string& label = *dfa.head_skip_label();
        int label_symbol = alphabet_.label_symbol(label);
        int target_of_label = dfa.transition(dfa.initial_state(), label_symbol);
        bool leaf_accepting = dfa.flags(target_of_label).accepting;

        // The search is constructed first: it owns block 0 until the first
        // handoff, so the accountant attributes the lead-in to head-skip.
        LabelSearch search(document, kernels, label, validator, accountant,
                           budget_);
        StructuralIterator iter(document, kernels, validator,
                                options_.limits.max_depth, accountant, budget_);

        while (auto occurrence = search.next()) {
            stats_.counters.add(obs::Counter::kHeadSkipJumps);
            std::size_t value = iter.first_non_ws(occurrence->colon_pos + 1);
            if (value >= document.size()) {
                break;
            }
            std::uint8_t first = document.data()[value];
            if (first == classify::kOpenBrace || first == classify::kOpenBracket) {
                // Container value: hand the pipeline to the structural
                // iterator, run the main algorithm on the subdocument,
                // then hand it back.
                iter.resume(search.resume_point_at(value));
                run_main_loop(iter, /*at_document_root=*/false);
                if (!status_.ok()) {
                    return;
                }
                search.resume(iter.resume_point());
            } else if (leaf_accepting) {
                // Atomic value: report directly; the search continues and
                // the quote classifier keeps string contents excluded.
                report(target_of_label, value);
                if (!status_.ok()) {
                    return;
                }
            }
        }
        // A budget violation inside either pipeline parks it silently
        // (next() runs dry); surface it here, before the caller consults
        // the validator verdict on a stream that was never fully accounted.
        // The search and the iterator are separate block streams, so each
        // latch must be consulted on its own.
        if (status_.ok() && !search.status().ok()) {
            fail(search.status().code, search.status().offset);
        }
        if (status_.ok() && !iter.status().ok()) {
            fail(iter.status().code, iter.status().offset);
        }
    }

private:
    /** Records the first problem; later reports keep the original. */
    void fail(StatusCode code, std::size_t offset)
    {
        if (status_.ok()) {
            status_ = {code, offset};
        }
    }

    /** Hands a match to the reporter; a tripped match limit fails the run
     *  at @p offset. */
    void report(int accepting_state, std::size_t offset)
    {
        if (!reporter_.report(accepting_state, offset)) {
            fail(StatusCode::kMatchLimit, offset);
        }
    }

    const Automaton& dfa_;
    const automaton::Alphabet& alphabet_;
    const EngineOptions& options_;
    RunStats& stats_;
    const RunBudget* budget_ = nullptr;
    const int other_;
    const bool counting_;
    Reporter reporter_;
    EngineStatus status_;
};

/**
 * The run sequence shared by every engine. @p make_simulation builds the
 * engine's simulation from the run's stats and budget (null when
 * inactive); it is called only when the run reaches the automaton.
 * @param root_only the query (every query of a set) is exactly `$`: the
 *        run takes the O(1) path and hands the root value's offset, if
 *        the document has one, to @p report_root.
 * @param head_skip drive the simulation through run_head_skip instead of
 *        one main loop over the whole document.
 */
template <typename ReportRoot, typename MakeSimulation>
RunStats run_document(PaddedView document, const simd::Kernels& kernels,
                      const EngineOptions& options, const RunBudget& budget,
                      bool root_only, ReportRoot&& report_root, bool head_skip,
                      MakeSimulation&& make_simulation)
{
    RunStats stats;
    // Shared by every pipeline over this document (exactly like the
    // validator below): attributes each block, once, to the mode that
    // first classified it. finish() closes the books on every return
    // path, so the accounting invariant — the six block counters sum to
    // ceil(size / kBlockSize) — holds for any status, any options.
    obs::BlockAccountant accountant(&stats.counters);
    // Null when inactive: the block stream then skips governance
    // entirely, keeping the default path at one pointer test per refill.
    const RunBudget* budget_ptr = budget.active() ? &budget : nullptr;
    stats.status = preflight_document(document, options.limits);
    if (stats.status.ok() && budget_ptr != nullptr) {
        // An already-violated budget fails before any work, at offset 0 —
        // the deterministic floor the stream executor's semantics pin on.
        StatusCode over = budget.exceeded();
        if (over != StatusCode::kOk) {
            stats.status = {over, 0};
        }
    }
    if (stats.status.ok() && root_only) {
        // The query selects the whole document. This path deliberately
        // stays O(1) and unvalidated — the document is never scanned, so
        // no structural verdict is possible (see DESIGN.md, "Error
        // handling & limits").
        StructuralIterator iter(document, kernels, nullptr,
                                EngineLimits::kUnlimited, &accountant);
        std::size_t start = iter.first_non_ws(0);
        if (start < document.size()) {
            report_root(start);
        }
    } else if (stats.status.ok()) {
        // Whole-document validation rides along with block classification:
        // per-kind bracket balances plus the end-of-input string state. The
        // event-driven checks in the simulation catch most damage early
        // with an exact offset; the verdict below catches what
        // kind-filtered fast-forwards can step across.
        StructuralValidator validator;
        StructuralValidator* vptr =
            options.validate_structure ? &validator : nullptr;
        auto simulation = make_simulation(stats, budget_ptr);
        if (head_skip) {
            // No trailing-content check here: head-skipping never tracks
            // the root element, so "after the root closed" is undefined.
            simulation.run_head_skip(document, kernels, vptr, &accountant);
            stats.status = simulation.status();
        } else {
            StructuralIterator iter(document, kernels, vptr,
                                    options.limits.max_depth, &accountant,
                                    budget_ptr);
            simulation.run_main_loop(iter, /*at_document_root=*/true);
            stats.status = simulation.status();
            if (stats.status.ok()) {
                std::size_t after = iter.first_non_ws(iter.position());
                if (after < document.size()) {
                    stats.status = {StatusCode::kTrailingContent, after};
                }
            }
        }
        if (stats.status.ok() && vptr != nullptr) {
            // Sound even though blocks past the root's closer were never
            // accounted: the trailing check above guarantees they hold only
            // whitespace, which cannot move a balance (the accountant books
            // them as the tail).
            stats.status = validator.verdict(document.size());
        }
    }
    // Governance outcomes are rare; the tally rides the failure path only.
    if (stats.status.code == StatusCode::kDeadlineExceeded) {
        stats.counters.add(obs::Counter::kDeadlineHits);
    } else if (stats.status.code == StatusCode::kCancelled) {
        stats.counters.add(obs::Counter::kCancelHits);
    }
    accountant.finish(document.size());
    return stats;
}

}  // namespace descend
