//! Host-speed calibration.
//!
//! On a shared virtual machine the speed of a core drifts by half or more
//! over seconds to minutes, as neighbours load the host; every time the
//! program takes drifts with it. A calibration is a fixed piece of work
//! made of the same kinds of effort the server spends — loopback TCP round
//! trips between two threads, hashing, sorting, allocation and formatting
//! — written with the standard library only, so no change to the program
//! changes it. Timed right beside each round, it says how fast the host
//! was during that round, and the round's times are scaled to a host that
//! runs one calibration in [`REFERENCE_S`].

use std::collections::HashMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

/// Seconds one calibration takes on the reference host: about what a
/// 2-vCPU Xeon virtual machine takes while its neighbours are quiet.
pub const REFERENCE_S: f64 = 0.005;

/// Loopback round trips in one calibration.
const ROUND_TRIPS: usize = 200;

/// Bytes of each loopback message.
const MESSAGE: usize = 256;

/// Keys hashed, sorted and formatted in one calibration.
const KEYS: u64 = 10_000;

/// Seconds one calibration takes on this host now.
pub fn measure() -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("calibration: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("calibration: {e}"))?;
    let t = Instant::now();
    std::thread::scope(|scope| -> Result<(), String> {
        let echo = scope.spawn(move || -> std::io::Result<()> {
            let (mut conn, _) = listener.accept()?;
            conn.set_nodelay(true)?;
            let mut buf = [0u8; MESSAGE];
            for _ in 0..ROUND_TRIPS {
                conn.read_exact(&mut buf)?;
                conn.write_all(&buf)?;
            }
            Ok(())
        });
        let mut conn = TcpStream::connect(addr).map_err(|e| format!("calibration: {e}"))?;
        conn.set_nodelay(true)
            .map_err(|e| format!("calibration: {e}"))?;
        let mut buf = [7u8; MESSAGE];
        for _ in 0..ROUND_TRIPS {
            conn.write_all(&buf)
                .and_then(|()| conn.read_exact(&mut buf))
                .map_err(|e| format!("calibration: {e}"))?;
        }
        echo.join()
            .expect("calibration echo thread panicked")
            .map_err(|e| format!("calibration: {e}"))
    })?;
    let mut keys: Vec<u64> = (0..KEYS)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17))
        .collect();
    keys.sort_unstable();
    let mut map: HashMap<String, u64> = HashMap::with_capacity(keys.len());
    for (i, key) in keys.iter().enumerate() {
        map.insert(format!("{key:016x}"), i as u64);
    }
    let sum: u64 = keys
        .iter()
        .filter_map(|key| map.get(&format!("{key:016x}")))
        .sum();
    black_box(sum);
    Ok(t.elapsed().as_secs_f64())
}
