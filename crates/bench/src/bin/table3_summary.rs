//! Regenerates **Table 3** (result summary): the key characteristics of
//! the seven representative devices — basic pattern costs at 32 KB,
//! pause effect, locality area, partitioning limit, and the ordered
//! pattern ratios.
//!
//! ```text
//! cargo run --release -p uflip-bench --bin table3_summary [--quick]
//! ```

use uflip_bench::HarnessOptions;
use uflip_core::methodology::state::enforce_random_state;
use uflip_device::profiles::catalog;
use uflip_report::json::write_json;
use uflip_report::summary::{characterize, CharacterizeConfig, DeviceSummary};

fn main() {
    let opts = HarnessOptions::from_args();
    let mut cfg = if opts.quick {
        CharacterizeConfig::quick()
    } else {
        CharacterizeConfig::paper()
    };
    // The harness enforces state itself so the summary can reuse the
    // device; keep characterize's own enforcement on (single pass).
    cfg.enforce_state = false;

    // Default: the paper's seven representative devices. `--device`
    // narrows to any single simulated target — a catalogue id or a
    // calibrated `profile:PATH` — with the valid-id listing on a typo.
    let devices: Vec<_> = match opts.device.as_deref() {
        None => catalog::representative(),
        Some(arg) => vec![uflip_bench::sim_profile_or_exit(arg)],
    };
    println!("Table 3: Result summary (simulated devices; compare with the paper's Table 3)");
    println!("{}", DeviceSummary::table3_header());
    // Each profile characterizes on its own device instance, so the
    // devices fan out across worker threads; rows print in catalogue
    // order once every thread has joined.
    let summaries: Vec<DeviceSummary> = std::thread::scope(|scope| {
        let handles: Vec<_> = devices
            .iter()
            .map(|profile| {
                let cfg = &cfg;
                scope.spawn(move || {
                    let mut dev = profile.build_sim(0xF11B);
                    enforce_random_state(dev.as_mut(), 128 * 1024, cfg.state_coverage, cfg.seed)
                        .expect("state enforcement");
                    uflip_device::BlockDevice::idle(
                        dev.as_mut(),
                        std::time::Duration::from_secs(5),
                    );
                    characterize(dev.as_mut(), cfg).expect("characterization")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("characterization threads do not panic"))
            .collect()
    });
    for summary in &summaries {
        println!("{}", summary.table3_row());
    }
    let out = opts.out_dir.join("table3_summary.json");
    write_json(&summaries, &out).expect("write summary JSON");
    eprintln!("wrote {}", out.display());
}
