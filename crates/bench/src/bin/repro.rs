//! Regenerates every table and figure of the paper's evaluation, then
//! prints the paper's claims about the experiments it ran, each checked
//! against this run, and exits 1 if one fails. `USAGE` (`repro
//! --help`) lists the flags and the 15 experiment ids; a flag it does
//! not know, or an id not listed, exits 2 before any experiment runs.

use std::path::PathBuf;

use green_bench::args::Args;
use green_bench::claims;
use green_bench::experiments::{embodied, gpu, platform, simulation, study, surveyfig};
use green_bench::render;
use green_bench::SimScale;
use green_userstudy::{AgentProfile, Game, Version};

const USAGE: &str = "\
repro — regenerate every table and figure of the paper's evaluation

USAGE:
    repro [--full] [--experiment <id>] [--export <dir>]

  --full              run the simulations at the paper's 142,380-job
                      scale; default is a reduced workload
  --experiment <id>   one of: fig1 fig2 fig4 table1 table2 table3
                      table4 table5 fig5 fig6 fig7 table6 fig8 fig9
                      fig10 (default: all)
  --export <dir>      additionally write the artifacts as CSV files

After the artifacts, repro prints the paper's claims about the
experiments it ran, each checked against this run, and exits 1 if one
fails.
";

/// The experiment ids `--experiment` takes besides `all`.
const EXPERIMENTS: [&str; 15] = [
    "fig1", "fig2", "fig4", "table1", "table2", "table3", "table4", "table5", "fig5", "fig6",
    "fig7", "table6", "fig8", "fig9", "fig10",
];

fn main() {
    let mut full = false;
    let mut experiment = "all".to_string();
    let mut export_dir: Option<PathBuf> = None;
    let mut args = Args::from_env(USAGE);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => full = true,
            "--experiment" => {
                experiment = args.parsed_by(|id| {
                    if id == "all" || EXPERIMENTS.contains(&id) {
                        Ok(id.to_string())
                    } else {
                        let ids = EXPERIMENTS.join(" ");
                        Err(format!("unknown experiment `{id}` (one of: all {ids})"))
                    }
                })
            }
            "--export" => export_dir = Some(args.value().into()),
            _ => args.unknown(),
        }
    }
    let scale = if full {
        SimScale::Paper
    } else {
        SimScale::Quick
    };

    let want = |id: &str| experiment == "all" || experiment == id;
    let mut checked: Vec<claims::Claim> = Vec::new();
    let mut export_failed = false;

    if want("fig1") || want("fig2") {
        let (f1, f2) = surveyfig::figures(7);
        if want("fig1") {
            let rows: Vec<Vec<String>> = f1
                .iter()
                .map(|r| {
                    vec![
                        r.metric.label().to_string(),
                        r.yes.to_string(),
                        r.no.to_string(),
                        r.not_applicable.to_string(),
                    ]
                })
                .collect();
            print!(
                "{}",
                render::table(
                    "Figure 1 — awareness of sustainability metrics",
                    &["Metric", "Yes", "No", "N/A"],
                    &rows,
                )
            );
        }
        if want("fig2") {
            let rows: Vec<Vec<String>> = f2
                .iter()
                .map(|r| {
                    vec![
                        r.factor.label().to_string(),
                        r.not_important.to_string(),
                        r.somewhat.to_string(),
                        r.very_important.to_string(),
                    ]
                })
                .collect();
            print!(
                "{}",
                render::table(
                    "Figure 2 — importance when selecting a machine",
                    &["Factor", "Not important", "Somewhat", "Very important"],
                    &rows,
                )
            );
            checked.extend(claims::figure2(&f2));
        }
    }

    if want("fig4") {
        let fig4 = platform::figure4();
        let rows: Vec<Vec<String>> = fig4
            .iter()
            .map(|r| {
                vec![
                    r.app.to_string(),
                    r.machine.to_string(),
                    format!("{:.2}", r.runtime_s),
                    format!("{:.1}", r.energy_j),
                ]
            })
            .collect();
        print!(
            "{}",
            render::table(
                "Figure 4 — runtime and energy of 7 apps × 4 CPU nodes (platform-measured)",
                &["App", "Machine", "Runtime (s)", "Energy (J)"],
                &rows,
            )
        );
        checked.extend(claims::figure4(&fig4));
    }

    if want("table1") {
        let table1 = platform::table1();
        let rows: Vec<Vec<String>> = table1
            .iter()
            .map(|r| {
                vec![
                    r.machine.to_string(),
                    format!("{:.2}", r.runtime_s),
                    format!("{:.1}", r.energy_j),
                    format!("{:.2}", r.eba),
                    format!("{:.2}", r.cba),
                    format!("{:.2}", r.peak),
                ]
            })
            .collect();
        print!(
            "{}",
            render::table(
                "Table 1 — Cholesky on the CPU testbed: normalized costs",
                &["Machine", "Runtime (s)", "Energy (J)", "EBA", "CBA", "Peak"],
                &rows,
            )
        );
        checked.extend(claims::table1(&table1));
    }

    if want("table2") {
        let table2 = gpu::table2();
        let rows: Vec<Vec<String>> = table2
            .iter()
            .map(|r| {
                vec![
                    r.gpu.clone(),
                    r.year.to_string(),
                    format!("{:.0}", r.gflops),
                    format!("{:.0}", r.tdp_w),
                    r.count.to_string(),
                    format!("{:.1}", r.carbon_rate),
                ]
            })
            .collect();
        print!(
            "{}",
            render::table(
                "Table 2 — GPU nodes and carbon rates (gCO2e/h)",
                &["GPU", "Year", "GFlop/s", "TDP (W)", "#GPUs", "Carbon rate"],
                &rows,
            )
        );
        checked.extend(claims::table2(&table2));
    }

    if want("table3") {
        let table3 = gpu::table3();
        let rows: Vec<Vec<String>> = table3
            .iter()
            .map(|r| {
                vec![
                    r.outcome.gpu.clone(),
                    r.outcome.count.to_string(),
                    format!("{:.0}", r.outcome.runtime.as_secs()),
                    format!("{:.0}", r.outcome.energy.as_kilojoules()),
                    format!("{:.2}", r.eba),
                    format!("{:.2}", r.cba),
                    format!("{:.2}", r.perf),
                ]
            })
            .collect();
        print!(
            "{}",
            render::table(
                "Table 3 — tiled Cholesky across GPU configurations",
                &[
                    "GPU",
                    "#",
                    "Runtime (s)",
                    "Energy (kJ)",
                    "EBA",
                    "CBA",
                    "Perf"
                ],
                &rows,
            )
        );
        checked.extend(claims::table3(&table3));
    }

    if want("table4") {
        let table4 = embodied::table4();
        let rows: Vec<Vec<String>> = table4
            .iter()
            .map(|r| {
                vec![
                    r.machine.to_string(),
                    r.age.to_string(),
                    format!("{:.2}", r.operational_mg),
                    format!("{:.2}", r.linear_mg),
                    format!("{:.2}", r.accelerated_mg),
                ]
            })
            .collect();
        print!(
            "{}",
            render::table(
                "Table 4 — operational vs embodied carbon (mgCO2e per run)",
                &["Machine", "Age", "Operational", "Linear", "Accel."],
                &rows,
            )
        );
        checked.extend(claims::table4(&table4));
    }

    if want("table5") {
        let table5 = embodied::table5();
        let rows: Vec<Vec<String>> = table5
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.year.to_string(),
                    r.cpu.clone(),
                    r.cores.to_string(),
                    format!("{:.0}", r.tdp_w),
                    format!("{:.1}", r.idle_w),
                    format!("{:.1}", r.carbon_rate),
                    format!("{:.0}", r.avg_intensity),
                ]
            })
            .collect();
        print!(
            "{}",
            render::table(
                "Table 5 — simulation fleet",
                &[
                    "Machine",
                    "Year",
                    "CPU",
                    "Cores",
                    "TDP (W)",
                    "Idle (W)",
                    "Carbon rate (g/h)",
                    "Avg intensity",
                ],
                &rows,
            )
        );
        checked.extend(claims::table5(&table5));
    }

    let needs_sim =
        ["fig5", "fig6", "fig7", "table6"].iter().any(|e| want(e)) || export_dir.is_some();
    if needs_sim {
        eprintln!(
            "running batch simulations at {} scale…",
            if full { "paper" } else { "reduced" }
        );
        let artifacts = simulation::run(scale, 31);
        if want("fig5") {
            print!(
                "{}",
                render::bars(
                    "Figure 5a — work completed with a fixed EBA allocation",
                    &artifacts
                        .fig5a()
                        .iter()
                        .map(|(n, w)| (n.clone(), w / 1.0e6))
                        .collect::<Vec<_>>(),
                    "M core-h",
                )
            );
            let rows: Vec<Vec<String>> = artifacts
                .fig5c()
                .iter()
                .map(|(policy, dist)| {
                    let mut row = vec![policy.clone()];
                    row.extend(dist.iter().map(|c| c.to_string()));
                    row
                })
                .collect();
            let headers: Vec<&str> = std::iter::once("Policy")
                .chain(artifacts.machine_names.iter().map(String::as_str))
                .collect();
            print!(
                "{}",
                render::table("Figure 5c — jobs per machine by policy", &headers, &rows)
            );
            // Figure 5b: completion milestones.
            let rows: Vec<Vec<String>> = artifacts
                .fig5b(100.0)
                .iter()
                .map(|(policy, curve)| {
                    let half = artifacts.trace.len() / 2;
                    let t_half = curve
                        .iter()
                        .find(|(_, n)| *n >= half)
                        .map(|(t, _)| format!("{t:.0}"))
                        .unwrap_or_else(|| "—".into());
                    let t_all = curve
                        .last()
                        .map(|(t, _)| format!("{t:.0}"))
                        .unwrap_or_default();
                    vec![policy.clone(), t_half, t_all]
                })
                .collect();
            print!(
                "{}",
                render::table(
                    "Figure 5b — completion milestones (hours)",
                    &["Policy", "50% done", "100% done"],
                    &rows,
                )
            );
            checked.extend(claims::figure5(&artifacts));
        }
        if want("table6") {
            let rows: Vec<Vec<String>> = artifacts
                .table6()
                .iter()
                .map(|(name, mwh, op, attr)| {
                    vec![
                        name.clone(),
                        format!("{mwh:.1}"),
                        format!("{op:.0}"),
                        format!("{attr:.0}"),
                    ]
                })
                .collect();
            print!(
                "{}",
                render::table(
                    "Table 6 — energy and carbon by policy",
                    &[
                        "Policy",
                        "Energy (MWh)",
                        "Operational (kg)",
                        "Attributed (kg)"
                    ],
                    &rows,
                )
            );
            checked.extend(claims::table6(&artifacts));
        }
        if want("fig6") {
            print!(
                "{}",
                render::bars(
                    "Figure 6 — work completed with a fixed CBA allocation",
                    &artifacts
                        .fig6()
                        .iter()
                        .map(|(n, w)| (n.clone(), w / 1.0e6))
                        .collect::<Vec<_>>(),
                    "M core-h",
                )
            );
            checked.extend(claims::figure6(&artifacts));
        }
        if let Some(dir) = &export_dir {
            match green_bench::export::export_all(dir, &artifacts) {
                Ok(files) => eprintln!("exported {} CSV files to {}", files.len(), dir.display()),
                Err(e) => {
                    eprintln!("export failed: {e}");
                    export_failed = true;
                }
            }
        }
        if want("fig7") {
            print!(
                "{}",
                render::bars(
                    "Figure 7a — work with low-carbon grids (CBA)",
                    &artifacts
                        .fig7a()
                        .iter()
                        .map(|(n, w)| (n.clone(), w / 1.0e6))
                        .collect::<Vec<_>>(),
                    "M core-h",
                )
            );
            let rows: Vec<Vec<String>> = (0..24)
                .map(|h| {
                    let mut row = vec![format!("{h:02}:00")];
                    for m in 0..4 {
                        row.push(format!("{:.0}", artifacts.fig7b[m][h]));
                    }
                    for m in 0..4 {
                        row.push(format!("{:.0}%", artifacts.fig7c[h][m] * 100.0));
                    }
                    row
                })
                .collect();
            print!(
                "{}",
                render::table(
                    "Figures 7b/7c — hourly intensity (gCO2e/kWh) and cheapest-machine share",
                    &[
                        "Hour",
                        "I(FASTER)",
                        "I(Desktop)",
                        "I(IC)",
                        "I(Theta)",
                        "%FASTER",
                        "%Desktop",
                        "%IC",
                        "%Theta",
                    ],
                    &rows,
                )
            );
            checked.extend(claims::figure7(&artifacts));
        }
    }

    if want("fig8") {
        // One scripted play of the game, as a demonstration of Figure 8.
        let mut game = Game::new(Version::V3);
        let agent = AgentProfile::population(1, 7)[0];
        agent.play(&mut game, 42);
        println!("\n== Figure 8 — one play of the scheduling game (V3, automated) ==");
        println!(
            "jobs completed: {} | energy used: {:.1} kWh | allocation left: {:.2} | time left: {:.0} h",
            game.completed_jobs().len(),
            game.energy_used_kwh(),
            game.allocation_left(),
            game.time_left(),
        );
    }

    if want("fig9") || want("fig10") {
        eprintln!("running the user study (90 participants)…");
        let (_study, analysis) = study::run_full();
        if want("fig9") {
            let rows: Vec<Vec<String>> = analysis
                .summaries
                .iter()
                .map(|s| {
                    vec![
                        s.version.to_string(),
                        s.instances.to_string(),
                        format!("{:.1}", s.mean_energy_kwh),
                        format!("{:.1}", s.mean_jobs),
                    ]
                })
                .collect();
            print!(
                "{}",
                render::table(
                    "Figures 9a/9b — energy and jobs completed by game version",
                    &["Version", "Instances", "Mean energy (kWh)", "Mean jobs"],
                    &rows,
                )
            );
            println!(
                "Welch tests: V3 vs V1 p = {:.4} (significant); V2 vs V1 p = {:.3} (n.s.)",
                analysis.p_v3_vs_v1, analysis.p_v2_vs_v1
            );
            let mut rows = Vec::new();
            for (version, points) in &analysis.energy_by_jobs {
                for (jobs, energy) in points {
                    rows.push(vec![
                        version.to_string(),
                        jobs.to_string(),
                        format!("{energy:.1}"),
                    ]);
                }
            }
            print!(
                "{}",
                render::table(
                    "Figure 9c — energy stratified by jobs completed",
                    &["Version", "Jobs", "Mean energy (kWh)"],
                    &rows,
                )
            );
            checked.extend(claims::figure9(&analysis));
        }
        if want("fig10") {
            let rows: Vec<Vec<String>> = analysis
                .run_probability
                .iter()
                .map(|(version, points, r)| {
                    vec![
                        version.to_string(),
                        points.len().to_string(),
                        format!("{r:.3}"),
                    ]
                })
                .collect();
            print!(
                "{}",
                render::table(
                    "Figure 10 — correlation of job energy with run probability",
                    &["Version", "Jobs", "Pearson r"],
                    &rows,
                )
            );
            checked.extend(claims::figure10(&analysis));
        }
    }

    if !checked.is_empty() {
        print!("{}", claims::render(&checked));
    }
    let failed = checked.iter().filter(|c| !c.holds).count();
    if failed > 0 {
        eprintln!("{failed} of {} claims fail", checked.len());
    }
    if failed > 0 || export_failed {
        std::process::exit(1);
    }
}
