"""The leader's commit rule against the Raft paper's scan, and the
follower's AppendEntries merge against the per-entry loop.

``RaftNode._advance_commit_index`` takes the quorum-th largest match
index (the leader's own log counted) and commits it if it is above the
commit index and from the current term. The oracle below is the scan it
replaced: walk down from the last index, stop at the first entry of an
older term (Fig. 8), and commit the first index a quorum stores. The two
must agree on any leader state, i.e. any log whose terms never decrease
and never exceed the current term.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus.raft import LEADER, LogEntry, RaftNode


def scan_commit_index(terms, match_index, commit_index, current_term, quorum):
    """The original O(uncommitted x peers) descending scan."""
    last = len(terms) - 1
    for index in range(last, commit_index, -1):
        if terms[index] != current_term:
            break
        replicas = 1 + sum(1 for m in match_index.values() if m >= index)
        if replicas >= quorum:
            return index
    return commit_index


def leader(terms, match_index, commit_index, current_term, n_nodes):
    """A RaftNode in leader state, built without a simulator."""
    node = RaftNode.__new__(RaftNode)
    node.name = "raft:0"
    node.peer_names = [f"raft:{i}" for i in range(1, n_nodes)]
    node.state = LEADER
    node.current_term = current_term
    node.log = [LogEntry(term, ("cmd", i)) for i, term in enumerate(terms)]
    node.match_index = dict(match_index)
    node.commit_index = commit_index
    node.last_applied = commit_index
    node.apply_fn = lambda command: None
    node.applied_results = []
    node._proposals = {}
    return node


@st.composite
def leader_states(draw):
    n_nodes = draw(st.sampled_from((1, 3, 5)))
    # log[0] is the term-0 sentinel; terms never decrease after it
    steps = draw(st.lists(st.integers(0, 2), max_size=30))
    terms = [0]
    for step in steps:
        terms.append(max(1, terms[-1] + step))
    current_term = terms[-1] + draw(st.integers(0, 2)) or 1
    last = len(terms) - 1
    match_index = {}
    for i in range(1, n_nodes):
        # None: no entry for the peer; above ``last``: a stale ack
        m = draw(st.one_of(st.none(), st.integers(0, last + 2)))
        if m is not None:
            match_index[f"raft:{i}"] = m
    commit_index = draw(st.integers(0, last))
    return terms, match_index, commit_index, current_term, n_nodes


@settings(max_examples=400, deadline=None)
@given(state=leader_states())
def test_order_statistic_commit_matches_descending_scan(state):
    terms, match_index, commit_index, current_term, n_nodes = state
    node = leader(*state)
    want = scan_commit_index(terms, match_index, commit_index,
                             current_term, node._quorum())
    node._advance_commit_index()
    assert node.commit_index == want
    # everything newly committed was applied, in order
    assert [i for i, _c in node.applied_results] == list(
        range(commit_index + 1, want + 1)
    )


def test_old_term_entry_is_not_committed_by_count_alone():
    """Fig. 8: a quorum stores index 2, but it is from an older term."""
    node = leader([0, 1, 1, 2], {"raft:1": 2, "raft:2": 0}, 1, 2, 3)
    node._advance_commit_index()
    assert node.commit_index == 1
    node.match_index["raft:2"] = 3
    node._advance_commit_index()
    assert node.commit_index == 3


# ------------------------------------------------------- follower log merge
def loop_store(log, prev_index, entries):
    """The original per-entry AppendEntries merge."""
    index = prev_index
    for term, command, proposal_id in entries:
        index += 1
        if index < len(log):
            if log[index].term != term:
                del log[index:]
                log.append(LogEntry(term, command, proposal_id))
        else:
            log.append(LogEntry(term, command, proposal_id))
    return index


@st.composite
def follower_states(draw):
    def entries(n):
        # small term and command alphabets make matches and conflicts
        return [
            LogEntry(draw(st.integers(1, 3)), draw(st.sampled_from("ab")))
            for _ in range(n)
        ]

    log = [LogEntry(0, None)] + entries(draw(st.integers(0, 12)))
    prev_index = draw(st.integers(0, len(log) - 1))
    # the leader's suffix is often a copy of what we hold plus new ones
    sent = log[prev_index + 1 : prev_index + 1 + draw(st.integers(0, 12))]
    if draw(st.booleans()):
        sent = [LogEntry(e.term, e.command) for e in sent]  # equal, not same
    if sent and draw(st.booleans()):
        at = draw(st.integers(0, len(sent) - 1))
        sent[at] = entries(1)[0]
    sent = sent + entries(draw(st.integers(0, 4)))
    return log, prev_index, sent


@settings(max_examples=400, deadline=None)
@given(state=follower_states())
def test_store_entries_matches_per_entry_merge(state):
    log, prev_index, sent = state
    want_log = list(log)
    want = loop_store(want_log, prev_index, sent)
    node = RaftNode.__new__(RaftNode)
    node.log = list(log)
    assert node._store_entries(prev_index, sent) == want
    assert node.log == want_log
