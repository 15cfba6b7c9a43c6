//! Integration tests of the rename coordinator over a real TafDB+FileStore
//! deployment, exercising the 2PC paths and concurrency properties directly
//! (the end-to-end path-level behavior is covered in `cfs-core`'s tests).

use std::sync::Arc;
use std::time::Duration;

use cfs_core::{CfsCluster, CfsConfig, FileSystem};
use cfs_renamer::RenameRequest;
use cfs_types::FsError;

fn cluster() -> Arc<CfsCluster> {
    Arc::new(CfsCluster::start(CfsConfig::test_small()).expect("boot"))
}

#[test]
fn concurrent_cross_directory_renames_serialize_correctly() {
    let c = cluster();
    let fs = c.client();
    fs.mkdir("/a").unwrap();
    fs.mkdir("/b").unwrap();
    for i in 0..20 {
        fs.create(&format!("/a/f{i}")).unwrap();
    }
    // Many clients move disjoint files from /a to /b concurrently; every
    // move goes through the Renamer (cross-directory).
    std::thread::scope(|s| {
        for t in 0..4 {
            let c = Arc::clone(&c);
            s.spawn(move || {
                let fs = c.client();
                for i in (t..20).step_by(4) {
                    fs.rename(&format!("/a/f{i}"), &format!("/b/f{i}")).unwrap();
                }
            });
        }
    });
    assert_eq!(fs.getattr("/a").unwrap().children, 0);
    assert_eq!(fs.getattr("/b").unwrap().children, 20);
    assert_eq!(fs.readdir("/b").unwrap().len(), 20);
}

#[test]
fn opposing_renames_of_same_file_have_one_winner() {
    let c = cluster();
    let fs = c.client();
    fs.mkdir("/x").unwrap();
    fs.mkdir("/y").unwrap();
    for round in 0..10 {
        let name = format!("t{round}");
        fs.create(&format!("/x/{name}")).unwrap();
        let (r1, r2) = std::thread::scope(|s| {
            let c1 = Arc::clone(&c);
            let n1 = name.clone();
            let h1 = s.spawn(move || {
                c1.client()
                    .rename(&format!("/x/{n1}"), &format!("/y/{n1}-via1"))
            });
            let c2 = Arc::clone(&c);
            let n2 = name.clone();
            let h2 = s.spawn(move || {
                c2.client()
                    .rename(&format!("/x/{n2}"), &format!("/y/{n2}-via2"))
            });
            (h1.join().unwrap(), h2.join().unwrap())
        });
        // Exactly one of the two opposing renames must win.
        assert!(
            r1.is_ok() ^ r2.is_ok(),
            "round {round}: exactly one winner expected, got {r1:?} / {r2:?}"
        );
        let in_y = fs.readdir("/y").unwrap().len();
        assert_eq!(in_y, round + 1, "one file lands in /y per round");
    }
    assert_eq!(fs.getattr("/x").unwrap().children, 0);
}

#[test]
fn concurrent_dir_moves_never_create_loops() {
    let c = cluster();
    let fs = c.client();
    // Build a small tree: /r/{p0,p1,p2}/child.
    fs.mkdir("/r").unwrap();
    for p in 0..3 {
        fs.mkdir(&format!("/r/p{p}")).unwrap();
        fs.mkdir(&format!("/r/p{p}/child")).unwrap();
    }
    // Threads try conflicting directory moves, including ones that would
    // create loops if interleaved unsafely.
    std::thread::scope(|s| {
        for t in 0..3 {
            let c = Arc::clone(&c);
            s.spawn(move || {
                let fs = c.client();
                let src = format!("/r/p{t}");
                let dst_parent = (t + 1) % 3;
                // Moving p{t} under p{t+1}/child — may succeed or legally
                // fail (Loop / NotFound when the destination moved away).
                let _ = fs.rename(&src, &format!("/r/p{dst_parent}/child/m{t}"));
            });
        }
    });
    // Whatever happened, the namespace must be loop-free: every directory
    // walks up to the root in bounded steps. A full recursive walk from the
    // root must terminate and find every remaining dir exactly once.
    fn walk(fs: &dyn FileSystem, path: &str, depth: usize, count: &mut usize) {
        assert!(depth < 32, "directory loop detected at {path}");
        for e in fs.readdir(path).unwrap() {
            if e.ftype == cfs_types::FileType::Dir {
                *count += 1;
                let child = format!("{path}/{}", e.name);
                walk(fs, &child, depth + 1, count);
            }
        }
    }
    let mut dirs = 0;
    walk(&fs, "/r", 0, &mut dirs);
    assert_eq!(dirs, 6, "all six directories still reachable exactly once");
}

#[test]
fn rename_nonexistent_destination_parent_fails_cleanly() {
    let c = cluster();
    let fs = c.client();
    fs.mkdir("/src").unwrap();
    fs.create("/src/f").unwrap();
    assert_eq!(
        fs.rename("/src/f", "/nosuch/f").unwrap_err(),
        FsError::NotFound
    );
    // Source untouched after the failed rename.
    assert!(fs.lookup("/src/f").is_ok());
    assert_eq!(fs.getattr("/src").unwrap().children, 1);
}

#[test]
fn rename_survives_filestore_node_failover() {
    let c = cluster();
    let fs = c.client();
    fs.mkdir("/m1").unwrap();
    fs.mkdir("/m2").unwrap();
    fs.create("/m1/f").unwrap();
    fs.create("/m2/f").unwrap(); // destination to be replaced
                                 // Kill a FileStore leader: the replaced file's attribute deletion must
                                 // retry against the new leader.
    let victim = c.fs_groups()[0].raft().leader().unwrap();
    c.network().kill(victim.id());
    fs.rename("/m1/f", "/m2/f").unwrap();
    assert_eq!(fs.getattr("/m2").unwrap().children, 1);
    assert_eq!(fs.getattr("/m1").unwrap().children, 0);
    let _ = Duration::from_secs(0);
}

/// Ops that take no renamer lock change the destination between the
/// coordinator's validation and its prepare. The rename runs again from its
/// first read: it overwrites nothing it did not validate, and deletes no
/// live file's attribute.
#[test]
fn a_destination_changed_after_validation_is_never_overwritten() {
    let c = cluster();
    let fs = c.client();
    fs.mkdir("/x").unwrap();
    fs.mkdir("/y").unwrap();
    let (x, y) = (fs.lookup("/x").unwrap(), fs.lookup("/y").unwrap());
    let req = |src_name: &str, dst_name: &str| RenameRequest {
        src_parent: x,
        src_name: src_name.into(),
        dst_parent: y,
        dst_name: dst_name.into(),
    };

    // The validated destination file moves away by a fast-path rename.
    let src = fs.create("/x/src").unwrap();
    let old = fs.create("/y/dst").unwrap();
    let mut raced = false;
    c.renamer()
        .process_racing(&req("src", "dst"), &mut || {
            if !std::mem::replace(&mut raced, true) {
                fs.rename("/y/dst", "/y/kept").unwrap();
            }
        })
        .unwrap();
    assert_eq!(fs.getattr("/y/kept").unwrap().ino, old);
    assert_eq!(fs.getattr("/y/dst").unwrap().ino, src);
    assert_eq!(fs.getattr("/x").unwrap().children, 0);
    assert_eq!(fs.getattr("/y").unwrap().children, 2);

    // A directory, with a child, is made at a destination validated absent.
    let file = fs.create("/x/f").unwrap();
    let mut raced = false;
    let res = c.renamer().process_racing(&req("f", "d"), &mut || {
        if !std::mem::replace(&mut raced, true) {
            fs.mkdir("/y/d").unwrap();
            fs.create("/y/d/inner").unwrap();
        }
    });
    assert_eq!(res.unwrap_err(), FsError::IsDir);
    assert_eq!(fs.getattr("/x/f").unwrap().ino, file);
    assert_eq!(fs.getattr("/y/d").unwrap().children, 1);
    assert!(fs.getattr("/y/d/inner").is_ok());
    let y_attr = fs.getattr("/y").unwrap();
    assert_eq!((y_attr.children, y_attr.links), (3, 3));
}
