//! The host record's parsers.

use std::path::Path;

use green_perfbench::host::{fs_type, CpuTimes};

#[test]
fn steal_share_comes_from_the_cpu_line() {
    let before = CpuTimes::parse("cpu  100 0 50 800 10 0 5 35 0 0");
    let after = CpuTimes::parse("cpu  200 0 100 1500 10 0 5 185 0 0");
    assert_eq!(before.total, 1000);
    assert_eq!(before.steal, 35);
    // 1000 ticks elapsed, 150 of them stolen.
    assert!((before.steal_share(&after) - 0.15).abs() < 1e-12);
    assert_eq!(after.steal_share(&after), 0.0, "no ticks, no share");
}

#[test]
fn the_filesystem_is_the_longest_mount_holding_the_path() {
    let mounts = "/dev/vda / ext4 rw 0 0\n\
                  tmpfs /tmp tmpfs rw 0 0\n\
                  tmpfs /tmpfoo tmpfs rw 0 0\n";
    assert_eq!(fs_type(Path::new("/tmp/x/y"), mounts), "tmpfs");
    assert_eq!(fs_type(Path::new("/home/x"), mounts), "ext4");
    assert_eq!(fs_type(Path::new("/tmpx"), mounts), "ext4");
    assert_eq!(fs_type(Path::new("/x"), ""), "unknown");
}
