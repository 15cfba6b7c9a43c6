//! Raft wire messages and log entries.

use cfs_types::{wire, NodeId};

/// One replicated log entry.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LogEntry {
    /// Term in which the entry was appended at the leader.
    pub term: u64,
    /// Opaque state-machine command. Empty commands are leader no-ops.
    pub cmd: Vec<u8>,
}

wire!(struct LogEntry { term, cmd });

/// The Raft RPC message set, delivered one-way in both directions.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RaftMsg {
    /// Candidate solicits a vote.
    RequestVote {
        /// Candidate's term.
        term: u64,
        /// Index of the candidate's last log entry.
        last_log_index: u64,
        /// Term of the candidate's last log entry.
        last_log_term: u64,
    },
    /// Response to [`RaftMsg::RequestVote`].
    VoteResp {
        /// Voter's current term.
        term: u64,
        /// Whether the vote was granted.
        granted: bool,
    },
    /// Leader replicates entries (empty `entries` is a heartbeat).
    AppendEntries {
        /// Leader's term.
        term: u64,
        /// Index of the entry immediately preceding `entries`.
        prev_index: u64,
        /// Term of the entry at `prev_index`.
        prev_term: u64,
        /// Entries to append.
        entries: Vec<LogEntry>,
        /// Leader's commit index.
        leader_commit: u64,
    },
    /// Response to [`RaftMsg::AppendEntries`].
    AppendResp {
        /// Follower's current term.
        term: u64,
        /// Whether the entries were appended.
        success: bool,
        /// On success, the follower's new last matched index; on failure, a
        /// hint where the leader should back up to.
        match_index: u64,
    },
    /// A replica asks the leader for a ReadIndex: the leader's commit index,
    /// valid for a local read once confirmed by a heartbeat round.
    ReadIndexReq {
        /// Requester-local read id, echoed in the response.
        id: u64,
    },
    /// Leader's answer to [`RaftMsg::ReadIndexReq`], sent only after a
    /// confirmation round proved it still leads (or immediately with
    /// `ok = false` when it does not).
    ReadIndexResp {
        /// The read id from the request.
        id: u64,
        /// The leader's commit index at request arrival (0 when `!ok`).
        index: u64,
        /// Whether leadership was confirmed.
        ok: bool,
        /// On `!ok`, where the requester should retry (raw node id).
        hint: Option<u32>,
    },
    /// Leadership-confirmation probe broadcast for pending ReadIndex reads.
    /// Deliberately separate from [`RaftMsg::AppendEntries`]: an ack must
    /// prove the peer still followed this leader *after* the read request
    /// arrived, which a late ack of an older heartbeat cannot.
    ReadIndexHeartbeat {
        /// Leader's term.
        term: u64,
        /// Confirmation round, monotonic per leader term.
        round: u64,
    },
    /// Response to [`RaftMsg::ReadIndexHeartbeat`].
    ReadIndexAck {
        /// Responder's current term.
        term: u64,
        /// The round being acknowledged.
        round: u64,
        /// True when the responder's term matched the probe's.
        ok: bool,
    },
    /// Leader streams its latest durable snapshot to a peer whose next
    /// needed entry was compacted away (or that joined empty). The peer
    /// installs the state-machine image and resumes normal append from
    /// `index + 1`.
    InstallSnapshot {
        /// Leader's term.
        term: u64,
        /// Last log index the snapshot covers (the peer's new applied/commit
        /// floor).
        index: u64,
        /// Term of the entry at `index`.
        snap_term: u64,
        /// Serialized state-machine image ([`crate::StateMachine::snapshot`]).
        data: Vec<u8>,
    },
    /// Response to [`RaftMsg::InstallSnapshot`].
    InstallSnapshotResp {
        /// Responder's current term.
        term: u64,
        /// The responder's applied index after installation (its new match
        /// index from the leader's point of view).
        index: u64,
    },
}

wire!(enum RaftMsg {
    0 => RequestVote { term, last_log_index, last_log_term },
    1 => VoteResp { term, granted },
    2 => AppendEntries { term, prev_index, prev_term, entries, leader_commit },
    3 => AppendResp { term, success, match_index },
    4 => ReadIndexReq { id },
    5 => ReadIndexResp { id, index, ok, hint },
    6 => ReadIndexHeartbeat { term, round },
    7 => ReadIndexAck { term, round, ok },
    8 => InstallSnapshot { term, index, snap_term, data },
    9 => InstallSnapshotResp { term, index },
});

/// Envelope: every raft payload on the wire carries the sender explicitly so
/// handlers do not depend on transport-provided identity.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Envelope {
    /// Sending node.
    pub from: NodeId,
    /// The message.
    pub msg: RaftMsg,
}

wire!(struct Envelope { from, msg });

#[cfg(test)]
mod tests {
    use super::*;
    use cfs_types::codec::{Decode, Encode};

    #[test]
    fn all_messages_round_trip() {
        let msgs = vec![
            RaftMsg::RequestVote {
                term: 5,
                last_log_index: 10,
                last_log_term: 4,
            },
            RaftMsg::VoteResp {
                term: 5,
                granted: true,
            },
            RaftMsg::AppendEntries {
                term: 6,
                prev_index: 9,
                prev_term: 4,
                entries: vec![
                    LogEntry {
                        term: 6,
                        cmd: b"put".to_vec(),
                    },
                    LogEntry {
                        term: 6,
                        cmd: Vec::new(),
                    },
                ],
                leader_commit: 8,
            },
            RaftMsg::AppendResp {
                term: 6,
                success: false,
                match_index: 3,
            },
            RaftMsg::ReadIndexReq { id: 41 },
            RaftMsg::ReadIndexResp {
                id: 41,
                index: 17,
                ok: true,
                hint: None,
            },
            RaftMsg::ReadIndexResp {
                id: 42,
                index: 0,
                ok: false,
                hint: Some(30),
            },
            RaftMsg::ReadIndexHeartbeat { term: 7, round: 3 },
            RaftMsg::ReadIndexAck {
                term: 7,
                round: 3,
                ok: true,
            },
            RaftMsg::InstallSnapshot {
                term: 9,
                index: 120,
                snap_term: 8,
                data: b"state-image".to_vec(),
            },
            RaftMsg::InstallSnapshotResp {
                term: 9,
                index: 120,
            },
        ];
        for msg in msgs {
            let env = Envelope {
                from: NodeId(2),
                msg,
            };
            let buf = env.to_bytes();
            assert_eq!(Envelope::from_bytes(&buf).unwrap(), env);
        }
    }
}
