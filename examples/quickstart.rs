//! Quickstart: boot a CFS cluster, do file system things, shut down.
//!
//! ```bash
//! cargo run --example quickstart
//! ```

use cfs::core::{CfsCluster, CfsConfig, FileSystem};
use cfs::filestore::SetAttrPatch;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Boot a full simulated deployment: 2 TafDB shards and 2 FileStore
    // nodes, each a 3-way Raft group, plus the TS group and the Renamer.
    println!("booting CFS cluster...");
    let cluster = CfsCluster::start(CfsConfig::test_small())?;
    let fs = cluster.client();

    // Namespace operations.
    fs.mkdir("/projects")?;
    fs.mkdir("/projects/cfs")?;
    let ino = fs.create("/projects/cfs/README.md")?;
    println!("created /projects/cfs/README.md as {ino:?}");

    // Data path: write and read back.
    let text = b"CFS: pruned critical sections for scalable metadata.";
    fs.write("/projects/cfs/README.md", 0, text)?;
    let back = fs.read("/projects/cfs/README.md", 0, text.len())?;
    assert_eq!(back, text);
    println!("wrote and read back {} bytes", text.len());

    // Attributes: file attrs live in FileStore, directory attrs in TafDB.
    let attr = fs.getattr("/projects/cfs/README.md")?;
    println!(
        "size={}B mode={:o} links={}",
        attr.size, attr.mode, attr.links
    );
    fs.setattr(
        "/projects/cfs/README.md",
        SetAttrPatch {
            mode: Some(0o600),
            ..Default::default()
        },
    )?;

    // Fast-path rename: same directory, one single-shard atomic primitive.
    fs.rename("/projects/cfs/README.md", "/projects/cfs/README.old")?;
    // Normal-path rename: cross-directory, coordinated by the Renamer.
    fs.mkdir("/archive")?;
    fs.rename("/projects/cfs/README.old", "/archive/README.md")?;

    // List what we made.
    for entry in fs.readdir("/archive")? {
        println!(
            "/archive/{} ({:?}, {:?})",
            entry.name, entry.ino, entry.ftype
        );
    }

    // The background garbage collector pairs the TafDB and FileStore pending
    // tables.
    let gc = std::sync::Arc::new(cluster.garbage_collector(std::time::Duration::from_millis(200)));
    let _handle = gc.start(std::time::Duration::from_millis(100));

    println!("done.");
    Ok(())
}
