//! AZ deobfuscation: recover an account's shuffled AZ naming from price
//! histories (paper §2.2 — the DrAFTS service needs a globally consistent
//! AZ naming scheme).

use drafts::market::obfuscation::{recover_mapping, AzMapping};
use drafts::market::{tracegen, Az, Catalog, Combo, PriceHistory};
use std::collections::HashMap;

fn main() {
    let catalog = Catalog::standard();
    let ty = catalog.type_id("c3.large").expect("known type");
    let cfg = tracegen::TraceConfig::days(10, 4242);

    // The provider's canonical view.
    let canonical: HashMap<Az, PriceHistory> = Az::all()
        .map(|az| (az, tracegen::generate(Combo::new(az, ty), catalog, &cfg)))
        .collect();

    // An account sees the same markets under a shuffled naming.
    let account_seed = 20171112;
    let mapping = AzMapping::for_account(account_seed);
    let observed: HashMap<Az, PriceHistory> = Az::all()
        .map(|visible| (visible, canonical[&mapping.to_canonical(visible)].clone()))
        .collect();

    println!("account {account_seed} sees:");
    for az in Az::all() {
        println!(
            "  {:<13} -> really {}",
            az.name(),
            mapping.to_canonical(az).name()
        );
    }

    let recovered = recover_mapping(&observed, &canonical).expect("identical series match");
    assert_eq!(recovered, mapping);
    println!("\nrecovered the full mapping by correlating price histories ✓");
}
