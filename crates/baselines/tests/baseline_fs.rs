//! Behavioral battery run against every baseline/ablation variant: all
//! systems must agree on POSIX semantics so cross-system benchmarks compare
//! performance, not correctness differences.

use std::sync::Arc;

use cfs_baselines::{BaselineCluster, Variant};
use cfs_core::{CfsConfig, FileSystem};
use cfs_filestore::SetAttrPatch;
use cfs_types::{FileType, FsError};

fn boot(variant: Variant) -> BaselineCluster {
    BaselineCluster::start(variant, CfsConfig::test_small(), 2).expect("boot")
}

fn battery(fs: &dyn FileSystem) {
    // Create / lookup / getattr.
    fs.mkdir("/w").unwrap();
    let ino = fs.create("/w/f1").unwrap();
    assert_eq!(fs.lookup("/w/f1").unwrap(), ino);
    let attr = fs.getattr("/w/f1").unwrap();
    assert_eq!(attr.ftype, FileType::File);
    assert_eq!(fs.getattr("/w").unwrap().children, 1);
    // Duplicate create fails.
    assert_eq!(fs.create("/w/f1").unwrap_err(), FsError::AlreadyExists);
    // setattr round trip.
    fs.setattr(
        "/w/f1",
        SetAttrPatch {
            mode: Some(0o640),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(fs.getattr("/w/f1").unwrap().mode, 0o640);
    // readdir.
    fs.create("/w/f2").unwrap();
    fs.mkdir("/w/d1").unwrap();
    let mut names: Vec<String> = fs
        .readdir("/w")
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    names.sort();
    assert_eq!(names, vec!["d1", "f1", "f2"]);
    // rmdir semantics.
    assert_eq!(fs.rmdir("/w").unwrap_err(), FsError::NotEmpty);
    assert_eq!(fs.rmdir("/w/f1").unwrap_err(), FsError::NotDir);
    assert_eq!(fs.unlink("/w/d1").unwrap_err(), FsError::IsDir);
    fs.rmdir("/w/d1").unwrap();
    // unlink.
    fs.unlink("/w/f2").unwrap();
    assert_eq!(fs.lookup("/w/f2").unwrap_err(), FsError::NotFound);
    assert_eq!(fs.getattr("/w").unwrap().children, 1);
    // rename within a directory.
    fs.rename("/w/f1", "/w/renamed").unwrap();
    assert_eq!(fs.lookup("/w/renamed").unwrap(), ino);
    assert_eq!(fs.lookup("/w/f1").unwrap_err(), FsError::NotFound);
    assert_eq!(fs.getattr("/w/renamed").unwrap().mode, 0o640);
    // rename across directories.
    fs.mkdir("/other").unwrap();
    fs.rename("/w/renamed", "/other/moved").unwrap();
    assert_eq!(fs.getattr("/w").unwrap().children, 0);
    assert_eq!(fs.getattr("/other").unwrap().children, 1);
    // rename with destination replacement.
    fs.create("/other/target").unwrap();
    fs.rename("/other/moved", "/other/target").unwrap();
    assert_eq!(fs.lookup("/other/target").unwrap(), ino);
    assert_eq!(fs.getattr("/other").unwrap().children, 1);
    // directory move + loop rejection.
    fs.mkdir("/t1").unwrap();
    fs.mkdir("/t1/t2").unwrap();
    assert_eq!(fs.rename("/t1", "/t1/t2/inner").unwrap_err(), FsError::Loop);
    fs.mkdir("/t3").unwrap();
    fs.rename("/t1/t2", "/t3/t2").unwrap();
    assert!(fs.lookup("/t3/t2").is_ok());
    // data path.
    fs.create("/other/data").unwrap();
    let payload = vec![7u8; 100_000];
    fs.write("/other/data", 0, &payload).unwrap();
    assert_eq!(
        fs.getattr("/other/data").unwrap().size,
        payload.len() as u64
    );
    assert_eq!(
        fs.read("/other/data", 50_000, 1000).unwrap(),
        vec![7u8; 1000]
    );
    // symlink.
    fs.symlink("/other/data", "/other/link").unwrap();
    assert_eq!(fs.readlink("/other/link").unwrap(), "/other/data");
    fs.unlink("/other/link").unwrap();
}

#[test]
fn hopsfs_like_semantics() {
    let c = boot(Variant::HopsFs);
    battery(&c.client());
}

#[test]
fn infinifs_like_semantics() {
    let c = boot(Variant::InfiniFs);
    battery(&c.client());
}

#[test]
fn cfs_base_semantics() {
    let c = boot(Variant::CfsBase);
    battery(&c.client());
}

#[test]
fn new_org_semantics() {
    let c = boot(Variant::NewOrg);
    battery(&c.client());
}

#[test]
fn primitives_semantics() {
    let c = boot(Variant::Primitives);
    battery(&c.client());
}

#[test]
fn no_proxy_semantics() {
    let c = boot(Variant::NoProxy);
    battery(&c.client());
}

#[test]
fn hopsfs_concurrent_creates_serialize_but_stay_correct() {
    let c = Arc::new(boot(Variant::HopsFs));
    // Row locks are counted on whichever replica leads; the hub is
    // process-global, so compare against the count before.
    let lock_acquisitions = || -> u64 {
        c.taf_groups()
            .iter()
            .flat_map(|g| g.raft().nodes())
            .map(|n| {
                cfs_obs::metrics::node(n.id().0 as u64)
                    .counter("lock_acquisitions")
                    .get()
            })
            .sum()
    };
    let before = lock_acquisitions();
    let fs = c.client();
    fs.mkdir("/shared").unwrap();
    let threads = 4;
    let per = 10;
    let mut handles = Vec::new();
    for t in 0..threads {
        let c = Arc::clone(&c);
        handles.push(std::thread::spawn(move || {
            let fs = c.client();
            for i in 0..per {
                fs.create(&format!("/shared/f-{t}-{i}")).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let attr = fs.getattr("/shared").unwrap();
    assert_eq!(attr.children as usize, threads * per);
    assert_eq!(fs.readdir("/shared").unwrap().len(), threads * per);
    // The lock-based engine must have recorded real lock activity.
    assert!(lock_acquisitions() > before);
}

#[test]
fn infinifs_concurrent_creates_stay_correct() {
    let c = Arc::new(boot(Variant::InfiniFs));
    let fs = c.client();
    fs.mkdir("/shared").unwrap();
    let threads = 4;
    let per = 10;
    let mut handles = Vec::new();
    for t in 0..threads {
        let c = Arc::clone(&c);
        handles.push(std::thread::spawn(move || {
            let fs = c.client();
            for i in 0..per {
                fs.create(&format!("/shared/f-{t}-{i}")).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        fs.getattr("/shared").unwrap().children as usize,
        threads * per
    );
}
