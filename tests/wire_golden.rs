//! Golden wire bytes: one encoded sample per variant of every public wire
//! type, as hex.
//!
//! RPC payloads, Raft log entries, WAL records and snapshot images are these
//! bytes, so a codec change that alters any of them fails here. Each sample
//! must encode to its golden bytes and decode back to itself; every strict
//! prefix must fail to decode, and so must the bytes with one byte appended.
//! Each enum's retired tags and its first unused tag must fail with
//! `InvalidTag`.

use std::fmt::Debug;

use cfs_baselines::proxy::{ProxyRequest, ProxyResponse, WireEntry};
use cfs_filestore::{FileStoreRequest, FileStoreResponse, SetAttrPatch};
use cfs_kvstore::WriteOp;
use cfs_placement::{PlacementRequest, PlacementResponse};
use cfs_raft::msg::Envelope;
use cfs_raft::{LogEntry, RaftMsg};
use cfs_renamer::{RenameRequest, RenameResponse};
use cfs_tafdb::api::{DirEntry, ShardCmd, TxnRequest, TxnResponse};
use cfs_tafdb::router::{MapVersion, ShardInfo, ShardRange};
use cfs_tafdb::tserver::{TsRequest, TsResponse};
use cfs_tafdb::{
    PrimResult, Primitive, ResolveEnd, ResolveStep, Resolved, TafRequest, TafResponse, UpdateSpec,
};
use cfs_types::codec::{Decode, DecodeError, Encode};
use cfs_types::record::Lww;
use cfs_types::{
    Attr, BlockId, Cond, FieldAssign, FileType, FsError, InodeId, Key, LwwField, NodeId, NumField,
    PendingEvent, PendingRow, PendingTable, Pred, Record, ShardId, Timestamp, VolumeId,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Checks one sample against its golden bytes.
#[track_caller]
fn golden<T: Encode + Decode + PartialEq + Debug>(want: &str, value: T) {
    let bytes = value.to_bytes();
    assert_eq!(hex(&bytes), want, "bytes of {value:?}");
    assert_eq!(T::from_bytes(&bytes), Ok(value));
    for n in 0..bytes.len() {
        assert!(
            T::from_bytes(&bytes[..n]).is_err(),
            "{n}-byte prefix of {want} decoded"
        );
    }
    let mut longer = bytes;
    longer.push(0);
    assert!(T::from_bytes(&longer).is_err(), "{want} + 00 decoded");
}

/// Checks that each of `tags` (retired or unused) is refused as a tag.
#[track_caller]
fn rejects_tags<T: Decode + Debug>(tags: &[u8]) {
    for &tag in tags {
        let got = T::from_bytes(&[tag]);
        assert!(
            matches!(got, Err(DecodeError::InvalidTag { .. })),
            "{} tag {tag}: {got:?}",
            std::any::type_name::<T>()
        );
    }
}

fn entry_key() -> Key {
    Key::entry(InodeId(7), "f")
}

fn id_rec() -> Record {
    Record::id_record(InodeId(9), FileType::File)
}

/// A record with every optional field set.
fn full_rec() -> Record {
    Record {
        id: Some(InodeId(2)),
        ftype: Some(FileType::Dir),
        links: Some(3),
        children: Some(-1),
        size: Some(300),
        mtime: Some(Lww::new(10, Timestamp(1))),
        ctime: Some(Lww::new(11, Timestamp(2))),
        atime: Some(Lww::new(12, Timestamp(3))),
        mode: Some(Lww::new(0o755, Timestamp(4))),
        uid: Some(Lww::new(5, Timestamp(5))),
        gid: Some(Lww::new(6, Timestamp(6))),
        symlink_target: Some("t".into()),
        parent: Some(InodeId(1)),
        inode_limit: Some(100),
        byte_limit: Some(1 << 20),
    }
}

fn row(event: PendingEvent) -> PendingRow {
    PendingRow {
        key: entry_key().to_sortable_bytes(),
        ino: InodeId(9),
        event,
    }
}

fn update() -> UpdateSpec {
    UpdateSpec::new(
        Cond::require(Key::attr(InodeId(7)), vec![Pred::TypeIs(FileType::Dir)]),
        vec![
            FieldAssign::Delta {
                field: NumField::Children,
                delta: 1,
            },
            FieldAssign::Set {
                field: LwwField::Mtime,
                value: 5,
                ts: Timestamp(4),
            },
        ],
    )
    .with_per_deleted(vec![(NumField::Children, -1)])
    .with_set_id(InodeId(3))
}

/// A primitive with every clause populated.
fn prim() -> Primitive {
    Primitive {
        checks: vec![Cond::require(Key::attr(InodeId(7)), vec![Pred::Exists])],
        inserts: vec![(entry_key(), id_rec())],
        deletes: vec![Cond::if_exist(
            Key::entry(InodeId(7), "g"),
            vec![Pred::TypeIsNot(FileType::Dir)],
        )],
        update: Some(update()),
        quota: Some(Box::new(UpdateSpec::new(
            Cond::require(
                Key::attr(InodeId(0)),
                vec![Pred::QuotaHasRoom {
                    inodes: 1,
                    bytes: 0,
                }],
            ),
            vec![],
        ))),
    }
}

fn attr() -> Attr {
    let mut a = Attr::new_symlink(InodeId(9), 77, "/t");
    a.size = 2;
    a.lww_ts = Timestamp(8);
    a
}

fn map() -> MapVersion {
    MapVersion {
        epoch: 2,
        shards: vec![
            ShardRange {
                info: ShardInfo {
                    id: ShardId(0),
                    replicas: vec![NodeId(1), NodeId(2)],
                },
                start: 0,
                end: 99,
            },
            ShardRange {
                info: ShardInfo {
                    id: ShardId(1),
                    replicas: vec![NodeId(3)],
                },
                start: 100,
                end: u64::MAX,
            },
        ],
    }
}

#[test]
fn types_wire_bytes() {
    golden("2a", InodeId(42));
    golden("8001", VolumeId(128));
    golden("07", NodeId(7));
    golden("03", ShardId(3));
    golden(
        "0904",
        BlockId {
            ino: InodeId(9),
            index: 4,
        },
    );
    golden("ac02", Timestamp(300));
    golden("00", FileType::File);
    golden("01", FileType::Dir);
    golden("02", FileType::Symlink);
    rejects_tags::<FileType>(&[3]);
    golden("09020100024d4d4dff03000001022f7408", attr());
    golden("0702", Lww::new(7, Timestamp(2)));
    golden(
        "000003",
        FieldAssign::Delta {
            field: NumField::Links,
            delta: -2,
        },
    );
    golden(
        "00028040",
        FieldAssign::Delta {
            field: NumField::Size,
            delta: 4096,
        },
    );
    golden(
        "01050309",
        FieldAssign::Set {
            field: LwwField::Gid,
            value: 3,
            ts: Timestamp(9),
        },
    );
    golden(
        "01020101",
        FieldAssign::Set {
            field: LwwField::Atime,
            value: 1,
            ts: Timestamp(1),
        },
    );
    rejects_tags::<FieldAssign>(&[2]);
    golden("00", Pred::Exists);
    golden("01", Pred::NotExists);
    golden("0201", Pred::TypeIs(FileType::Dir));
    golden("0300", Pred::ChildrenEq(0));
    golden("0405", Pred::IdEq(InodeId(5)));
    golden("0502", Pred::TypeIsNot(FileType::Symlink));
    golden(
        "06027f",
        Pred::QuotaHasRoom {
            inodes: 1,
            bytes: -64,
        },
    );
    rejects_tags::<Pred>(&[7]);
    golden(
        "070101660200040901",
        Cond::if_exist(entry_key(), vec![Pred::Exists, Pred::IdEq(InodeId(9))]),
    );
    golden("000000000000000000000000000000", Record::default());
    golden("0109010000000000000000000000000000", id_rec());
    golden(
        "010201010106010101d804010a01010b02010c0301ed0304010505010606010174010101c8010180808001",
        full_rec(),
    );
    golden("0700", Key::attr(InodeId(7)));
    golden("07010166", entry_key());
    golden("00", FsError::NotFound);
    golden("01", FsError::AlreadyExists);
    golden("02", FsError::NotDir);
    golden("03", FsError::IsDir);
    golden("04", FsError::NotEmpty);
    golden("0503626164", FsError::Invalid("bad".into()));
    golden("06", FsError::Loop);
    golden("07", FsError::Busy);
    golden("08", FsError::Conflict);
    golden("09", FsError::Timeout);
    golden("0a", FsError::NoSpace);
    golden("0b0365696f", FsError::Io("eio".into()));
    golden("0c03726f74", FsError::Corrupted("rot".into()));
    golden("0d0104", FsError::NotLeader(Some(4)));
    golden("0d00", FsError::NotLeader(None));
    golden("0e0178", FsError::Unsupported("x".into()));
    golden("0f06", FsError::WrongShard(6));
    golden("10", FsError::QuotaExceeded);
    rejects_tags::<FsError>(&[17]);
    golden("0a000000000000000701660900", row(PendingEvent::Linked));
    golden("0a000000000000000701660901", row(PendingEvent::Unlinked));
    golden(
        "000902",
        PendingRow {
            key: Vec::new(),
            ino: InodeId(9),
            event: PendingEvent::DirAttrPut,
        },
    );
    golden(
        "000903",
        PendingRow {
            key: Vec::new(),
            ino: InodeId(9),
            event: PendingEvent::DirAttrDeleted,
        },
    );
    golden(
        "000a04",
        PendingRow {
            key: Vec::new(),
            ino: InodeId(10),
            event: PendingEvent::AttrPut,
        },
    );
    golden(
        "000a05",
        PendingRow {
            key: Vec::new(),
            ino: InodeId(10),
            event: PendingEvent::AttrDeleted,
        },
    );
    // The event byte past the last event is refused.
    let mut bad = row(PendingEvent::Linked).to_bytes();
    *bad.last_mut().unwrap() = 6;
    assert!(matches!(
        PendingRow::from_bytes(&bad),
        Err(DecodeError::InvalidTag { .. })
    ));
}

#[test]
fn pending_table_image_bytes() {
    let mut table = PendingTable::default();
    table.record(Vec::new(), InodeId(9), PendingEvent::DirAttrPut);
    table.record(
        entry_key().to_sortable_bytes(),
        InodeId(9),
        PendingEvent::Linked,
    );
    let bytes = table.to_bytes();
    assert_eq!(hex(&bytes), "020009020a000000000000000701660900");
    // The image is the rows as a list, in key order.
    assert_eq!(bytes, table.rows().to_bytes());
    assert_eq!(
        PendingTable::from_bytes(&bytes).unwrap().rows(),
        table.rows()
    );
    for n in 0..bytes.len() {
        assert!(PendingTable::from_bytes(&bytes[..n]).is_err());
    }
}

#[test]
fn kvstore_wire_bytes() {
    golden("000201020103", WriteOp::Put(vec![1, 2], vec![3]));
    golden("010104", WriteOp::Delete(vec![4]));
    rejects_tags::<WriteOp>(&[2]);
}

#[test]
fn raft_wire_bytes() {
    golden(
        "0302aabb",
        LogEntry {
            term: 3,
            cmd: vec![0xaa, 0xbb],
        },
    );
    golden(
        "0100",
        LogEntry {
            term: 1,
            cmd: Vec::new(),
        },
    );
    golden(
        "00050a04",
        RaftMsg::RequestVote {
            term: 5,
            last_log_index: 10,
            last_log_term: 4,
        },
    );
    golden(
        "010501",
        RaftMsg::VoteResp {
            term: 5,
            granted: true,
        },
    );
    golden(
        "020609050106010108",
        RaftMsg::AppendEntries {
            term: 6,
            prev_index: 9,
            prev_term: 5,
            entries: vec![LogEntry {
                term: 6,
                cmd: vec![1],
            }],
            leader_commit: 8,
        },
    );
    golden(
        "030600c801",
        RaftMsg::AppendResp {
            term: 6,
            success: false,
            match_index: 200,
        },
    );
    golden("0411", RaftMsg::ReadIndexReq { id: 17 });
    golden(
        "051128010102",
        RaftMsg::ReadIndexResp {
            id: 17,
            index: 40,
            ok: true,
            hint: Some(2),
        },
    );
    golden("060603", RaftMsg::ReadIndexHeartbeat { term: 6, round: 3 });
    golden(
        "07060301",
        RaftMsg::ReadIndexAck {
            term: 6,
            round: 3,
            ok: true,
        },
    );
    golden(
        "0807e8070603090807",
        RaftMsg::InstallSnapshot {
            term: 7,
            index: 1000,
            snap_term: 6,
            data: vec![9, 8, 7],
        },
    );
    golden(
        "0907e807",
        RaftMsg::InstallSnapshotResp {
            term: 7,
            index: 1000,
        },
    );
    rejects_tags::<RaftMsg>(&[10]);
    golden(
        "ac020401",
        Envelope {
            from: NodeId(300),
            msg: RaftMsg::ReadIndexReq { id: 1 },
        },
    );
}

#[test]
fn tafdb_request_wire_bytes() {
    golden("0007010166", TafRequest::Get(entry_key()));
    golden(
        "010301016d64",
        TafRequest::Scan {
            dir: InodeId(3),
            after: Some("m".into()),
            limit: 100,
        },
    );
    golden("020107000100000107010166010901000000000000000000000000000001070101670105010101070001020100020001020100050401010101030100000106020000000000", TafRequest::Execute(prim()));
    golden("030400010201010106010101d804010a01010b02010c0301ed0304010505010606010174010101c8010180808001", TafRequest::Put(Key::attr(InodeId(4)), full_rec()));
    golden("0407010166", TafRequest::Delete(entry_key()));
    golden(
        "0605ffffffffffffffffff010101ab8002",
        TafRequest::MigExport {
            lo: 5,
            hi: u64::MAX,
            after: Some(vec![0xab]),
            limit: 256,
        },
    );
    golden(
        "07020001010102010103",
        TafRequest::MigIngest {
            ops: vec![WriteOp::Put(vec![1], vec![2]), WriteOp::Delete(vec![3])],
        },
    );
    golden("080063", TafRequest::SplitPoint { lo: 0, hi: 99 });
    golden(
        "09080a14",
        TafRequest::MigCtl(ShardCmd::MigStart { lo: 10, hi: 20 }),
    );
    golden(
        "0a010203757372036c696200ffffffffffffffffff01",
        TafRequest::ResolvePrefix {
            start: InodeId(1),
            comps: vec!["usr".into(), "lib".into()],
            lo: 0,
            hi: u64::MAX,
        },
    );
    golden(
        "0b0007010166",
        TafRequest::ReadIndex(Box::new(TafRequest::Get(entry_key()))),
    );
    golden("0c", TafRequest::Pending);
    golden(
        "0d010a000000000000000701660901",
        TafRequest::GcTrim(vec![row(PendingEvent::Unlinked)]),
    );
    rejects_tags::<TafRequest>(&[5, 14]);
}

#[test]
fn tafdb_response_wire_bytes() {
    golden(
        "01660109010000000000000000000000000000",
        DirEntry {
            name: "f".into(),
            record: id_rec(),
        },
    );
    golden(
        "0c0104",
        ResolveStep {
            ino: InodeId(12),
            ftype: FileType::Dir,
            gen: 4,
        },
    );
    golden("00", ResolveEnd::Done);
    golden("01", ResolveEnd::Continue);
    golden(
        "020002",
        ResolveEnd::Err {
            err: FsError::NotFound,
            gen: 2,
        },
    );
    rejects_tags::<ResolveEnd>(&[3]);
    golden(
        "010c010401",
        Resolved {
            steps: vec![ResolveStep {
                ino: InodeId(12),
                ftype: FileType::Dir,
                gen: 4,
            }],
            end: ResolveEnd::Continue,
        },
    );
    golden(
        "01070101660109010000000000000000000000000000",
        PrimResult {
            deleted: vec![(entry_key(), id_rec())],
        },
    );
    golden(
        "00010109010000000000000000000000000000",
        TafResponse::Record(Some(id_rec())),
    );
    golden("0000", TafResponse::Record(None));
    golden(
        "010101610109010000000000000000000000000000",
        TafResponse::Entries(vec![DirEntry {
            name: "a".into(),
            record: id_rec(),
        }]),
    );
    golden(
        "0201070101660109010000000000000000000000000000",
        TafResponse::Executed(PrimResult {
            deleted: vec![(entry_key(), id_rec())],
        }),
    );
    golden("03", TafResponse::Ok);
    golden("0508", TafResponse::Err(FsError::Conflict));
    golden(
        "060101010101",
        TafResponse::Exported {
            ops: vec![WriteOp::Delete(vec![1])],
            done: true,
        },
    );
    golden(
        "070100010100",
        TafResponse::Tail(vec![WriteOp::Put(vec![1], vec![])]),
    );
    golden("080132", TafResponse::SplitAt(Some(50)));
    golden(
        "090000",
        TafResponse::Resolved(Resolved {
            steps: vec![],
            end: ResolveEnd::Done,
        }),
    );
    golden(
        "0a010a000000000000000701660900",
        TafResponse::Pending(vec![row(PendingEvent::Linked)]),
    );
    rejects_tags::<TafResponse>(&[4, 11]);
}

#[test]
fn tafdb_command_wire_bytes() {
    golden("07000102010002000102010005040101010103", update());
    golden("0107000100000107010166010901000000000000000000000000000001070101670105010101070001020100020001020100050401010101030100000106020000000000", prim());
    golden("0000000000", Primitive::default());
    golden("000107000100000107010166010901000000000000000000000000000001070101670105010101070001020100020001020100050401010101030100000106020000000000", ShardCmd::Execute(prim()));
    golden(
        "01070101660109010000000000000000000000000000",
        ShardCmd::Put(entry_key(), id_rec()),
    );
    golden("0207010166", ShardCmd::Delete(entry_key()));
    golden(
        "034d0207010166010109010000000000000000000000000000070000",
        ShardCmd::Prepare {
            txn: 77,
            writes: vec![(entry_key(), Some(id_rec())), (Key::attr(InodeId(7)), None)],
        },
    );
    golden("044d", ShardCmd::CommitPrepared { txn: 77 });
    golden("054d", ShardCmd::Abort { txn: 77 });
    golden(
        "06010701016600",
        ShardCmd::CommitWrites {
            writes: vec![(entry_key(), None)],
        },
    );
    golden("074e0107000100000107010166010901000000000000000000000000000001070101670105010101070001020100020001020100050401010101030100000106020000000000", ShardCmd::PreparePrim {
        txn: 78,
        prim: prim(),
    });
    golden("080102", ShardCmd::MigStart { lo: 1, hi: 2 });
    golden("090102", ShardCmd::MigFreeze { lo: 1, hi: 2 });
    golden(
        "0a010203",
        ShardCmd::MigFinish {
            lo: 1,
            hi: 2,
            epoch: 3,
        },
    );
    golden("0b0102", ShardCmd::MigAbort { lo: 1, hi: 2 });
    golden(
        "0c01010105",
        ShardCmd::MigIngest {
            ops: vec![WriteOp::Delete(vec![5])],
        },
    );
    golden("0d0102", ShardCmd::MigAccept { lo: 1, hi: 2 });
    golden(
        "0e010a000000000000000701660900",
        ShardCmd::GcTrim(vec![row(PendingEvent::Linked)]),
    );
    rejects_tags::<ShardCmd>(&[15]);
    golden(
        "000507010166",
        TxnRequest::LockAndRead {
            txn: 5,
            key: entry_key(),
        },
    );
    golden(
        "01050700",
        TxnRequest::Lock {
            txn: 5,
            key: Key::attr(InodeId(7)),
        },
    );
    golden(
        "02050107010166010109010000000000000000000000000000",
        TxnRequest::Prepare {
            txn: 5,
            writes: vec![(entry_key(), Some(id_rec()))],
        },
    );
    golden("0305", TxnRequest::CommitPrepared { txn: 5 });
    golden(
        "0405010701016600",
        TxnRequest::Commit {
            txn: 5,
            writes: vec![(entry_key(), None)],
        },
    );
    golden("0505", TxnRequest::Abort { txn: 5 });
    golden("06050107000100000107010166010901000000000000000000000000000001070101670105010101070001020100020001020100050401010101030100000106020000000000", TxnRequest::PreparePrim {
        txn: 5,
        prim: prim(),
    });
    rejects_tags::<TxnRequest>(&[7]);
    golden(
        "00010109010000000000000000000000000000",
        TxnResponse::Locked(Some(id_rec())),
    );
    golden("01", TxnResponse::Ok);
    golden("0207", TxnResponse::Err(FsError::Busy));
    rejects_tags::<TxnResponse>(&[3]);
}

#[test]
fn tafdb_control_wire_bytes() {
    golden(
        "0403010203",
        ShardInfo {
            id: ShardId(4),
            replicas: vec![NodeId(1), NodeId(2), NodeId(3)],
        },
    );
    golden("000201020063", map().shards[0].clone());
    golden("020200020102006301010364ffffffffffffffffff01", map());
    golden("0040", TsRequest::Timestamps { count: 64 });
    golden("0110", TsRequest::Ids { count: 16 });
    golden(
        "020210",
        TsRequest::IdsIn {
            vol: VolumeId(2),
            count: 16,
        },
    );
    rejects_tags::<TsRequest>(&[3]);
    golden(
        "00e80740",
        TsResponse::Timestamps {
            start: 1000,
            count: 64,
        },
    );
    golden("010201808080808020", TsResponse::Ids(vec![1, 1 << 40]));
    rejects_tags::<TsResponse>(&[2]);
    golden("0001", PlacementRequest::FetchMap { have_epoch: 1 });
    rejects_tags::<PlacementRequest>(&[1]);
    golden(
        "0001020200020102006301010364ffffffffffffffffff01",
        PlacementResponse::Map(Some(map())),
    );
    golden("0000", PlacementResponse::Map(None));
    golden("0109", PlacementResponse::Err(FsError::Timeout));
    rejects_tags::<PlacementResponse>(&[2]);
}

#[test]
fn filestore_wire_bytes() {
    let patch = SetAttrPatch {
        mode: Some(0o600),
        uid: None,
        gid: Some(5),
        mtime: Some(99),
        atime: None,
        size: Some(4096),
    };
    golden("018003000105016300018020", patch.clone());
    golden(
        "0009020100024d4d4dff03000001022f7408",
        FileStoreRequest::PutAttr(attr()),
    );
    golden("0109", FileStoreRequest::GetAttr(InodeId(9)));
    golden(
        "02090180030001050163000180200c",
        FileStoreRequest::SetAttr {
            ino: InodeId(9),
            patch,
            ts: Timestamp(12),
        },
    );
    golden("0309", FileStoreRequest::DeleteAttr(InodeId(9)));
    golden(
        "0409018020030102030d",
        FileStoreRequest::WriteBlock {
            block: BlockId {
                ino: InodeId(9),
                index: 1,
            },
            offset: 4096,
            data: vec![1, 2, 3],
            ts: Timestamp(13),
        },
    );
    golden(
        "050901",
        FileStoreRequest::ReadBlock(BlockId {
            ino: InodeId(9),
            index: 1,
        }),
    );
    golden("0609", FileStoreRequest::DeleteBlocks(InodeId(9)));
    golden("0709", FileStoreRequest::DeleteFile(InodeId(9)));
    golden("08", FileStoreRequest::Pending);
    golden(
        "0901000904",
        FileStoreRequest::GcTrim(vec![PendingRow {
            key: Vec::new(),
            ino: InodeId(9),
            event: PendingEvent::AttrPut,
        }]),
    );
    rejects_tags::<FileStoreRequest>(&[10]);
    golden("00", FileStoreResponse::Ok);
    golden(
        "010109020100024d4d4dff03000001022f7408",
        FileStoreResponse::Attr(Some(attr())),
    );
    golden("0201020707", FileStoreResponse::Block(Some(vec![7, 7])));
    golden("030a", FileStoreResponse::Err(FsError::NoSpace));
    golden("0400", FileStoreResponse::Pending(vec![]));
    rejects_tags::<FileStoreResponse>(&[5]);
}

#[test]
fn renamer_wire_bytes() {
    golden(
        "04036f6c6409036e6577",
        RenameRequest {
            src_parent: InodeId(4),
            src_name: "old".into(),
            dst_parent: InodeId(9),
            dst_name: "new".into(),
        },
    );
    golden("00", RenameResponse::Ok);
    golden("0106", RenameResponse::Err(FsError::Loop));
    rejects_tags::<RenameResponse>(&[2]);
}

#[test]
fn baselines_wire_bytes() {
    golden("00022f61", ProxyRequest::Create("/a".into()));
    golden("01022f64", ProxyRequest::Mkdir("/d".into()));
    golden("02022f61", ProxyRequest::Unlink("/a".into()));
    golden("03022f64", ProxyRequest::Rmdir("/d".into()));
    golden("04022f61", ProxyRequest::Lookup("/a".into()));
    golden("05022f61", ProxyRequest::Getattr("/a".into()));
    golden(
        "06022f610180030000000000",
        ProxyRequest::Setattr(
            "/a".into(),
            SetAttrPatch {
                mode: Some(0o600),
                ..SetAttrPatch::default()
            },
        ),
    );
    golden("07022f64", ProxyRequest::Readdir("/d".into()));
    golden(
        "08022f61022f62",
        ProxyRequest::Rename("/a".into(), "/b".into()),
    );
    golden(
        "09022f74022f6c",
        ProxyRequest::Symlink("/t".into(), "/l".into()),
    );
    golden("0a022f6c", ProxyRequest::Readlink("/l".into()));
    golden(
        "0b022f6108020102",
        ProxyRequest::Write("/a".into(), 8, vec![1, 2]),
    );
    golden("0c022f610802", ProxyRequest::Read("/a".into(), 8, 2));
    rejects_tags::<ProxyRequest>(&[13]);
    let entry = WireEntry {
        name: "a".into(),
        ino: InodeId(9),
        ftype: FileType::File,
    };
    golden("01610900", entry.clone());
    golden("00", ProxyResponse::Ok);
    golden("0109", ProxyResponse::Ino(InodeId(9)));
    golden(
        "0209020100024d4d4dff03000001022f7408",
        ProxyResponse::Attr(attr()),
    );
    golden("030101610900", ProxyResponse::Entries(vec![entry]));
    golden("04022f74", ProxyResponse::Text("/t".into()));
    golden("05020102", ProxyResponse::Data(vec![1, 2]));
    golden("0604", ProxyResponse::Err(FsError::NotEmpty));
    rejects_tags::<ProxyResponse>(&[7]);
}
