//! Property-based tests of the injection campaigns: total
//! classification and determinism across the whole configuration
//! space.

use proptest::prelude::*;
use wtnc_inject::text_campaign::{run_one, InjectionTarget, TextCampaignConfig};
use wtnc_inject::{ErrorModel, RunOutcome};

fn arb_model() -> impl Strategy<Value = ErrorModel> {
    prop_oneof![
        Just(ErrorModel::Addif),
        Just(ErrorModel::Dataif),
        Just(ErrorModel::Dataof),
        Just(ErrorModel::Datainf),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every combination of protection, model, target and seed
    /// classifies into exactly one Table-7 outcome without panicking,
    /// and the classification is deterministic.
    #[test]
    fn every_run_classifies_and_is_deterministic(
        pecos in any::<bool>(),
        audits in any::<bool>(),
        model in arb_model(),
        directed in any::<bool>(),
        engine in prop_oneof![
            Just(wtnc_isa::Engine::Slow),
            Just(wtnc_isa::Engine::Decoded),
        ],
        seed in any::<u64>(),
    ) {
        let config = TextCampaignConfig {
            pecos,
            audits,
            model,
            target: if directed {
                InjectionTarget::DirectedCfi
            } else {
                InjectionTarget::RandomText
            },
            runs: 1,
            threads: 2,
            iterations: 6,
            audit_every_steps: 2_000,
            step_budget: 150_000,
            seed: 0,
            engine,
        };
        let outcome = run_one(&config, seed);
        prop_assert!(RunOutcome::ALL.contains(&outcome));
        prop_assert_eq!(run_one(&config, seed), outcome, "classification must be deterministic");
        // Structural impossibilities.
        if !pecos {
            prop_assert_ne!(outcome, RunOutcome::PecosDetection);
        }
        if !audits {
            prop_assert_ne!(outcome, RunOutcome::AuditDetection);
        }
    }
}
