//! The flight recorder's panic hook dumps on panic: with a dump directory
//! armed and [`fdb_obs::flight::install_panic_hook`] installed, a panic
//! writes a `flight-*.json` whose reason is `panic: <message>`. This file
//! holds exactly one test, so no other test in its process moves the
//! armed directory or panics beside it.

use fdb_obs::flight;

#[test]
fn panic_writes_a_flight_dump() {
    let dir = std::env::temp_dir().join(format!("fdb-flight-panic-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    flight::set_dump_dir(Some(dir.clone()));
    flight::install_panic_hook();

    let caught = std::panic::catch_unwind(|| panic!("boom"));
    assert!(caught.is_err());
    flight::set_dump_dir(None);

    let dumps: Vec<String> = std::fs::read_dir(&dir)
        .expect("the hook created the dump directory")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|path| {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("flight-") && name.ends_with(".json")
        })
        .map(|path| std::fs::read_to_string(path).expect("readable dump"))
        .collect();
    assert_eq!(dumps.len(), 1, "one panic, one dump");
    assert!(
        dumps[0].starts_with("{\"reason\":\"panic: boom\""),
        "{}",
        &dumps[0][..dumps[0].len().min(80)]
    );
    let _ = std::fs::remove_dir_all(&dir);
}
