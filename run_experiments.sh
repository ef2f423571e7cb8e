#!/usr/bin/env bash
# Regenerates every table and figure of the paper. See DESIGN.md §4.
# Build first (`cargo build --release`); the DESALIGN_* profile variables
# pass through to `desalign-bench`, which holds their defaults.
set -euo pipefail
cd "$(dirname "$0")"
for name in table1_stats table2_text_ratio table3_image_ratio table4_monolingual \
            table5_bilingual fig3_ablation fig3_weak_supervision fig4_sp_iterations \
            efficiency energy_trace ablation_design; do
  echo "=== running $name ==="
  ./target/release/desalign-bench "$name" 2>&1 | tee "results/${name}.txt"
done
echo ALL_EXPERIMENTS_DONE
