"""Figure 2: execution-time variance vs input size, IMC vs ODC.

Runs Spark-KMeans, Hadoop-KMeans, Spark-PageRank and Hadoop-PageRank
with two input datasets under N random configurations each and reports
``Tvar`` (Equation 1): the mean gap between the worst observed time and
each observed time.  The paper's finding: Spark's Tvar grows steeply
with input size (2.6x for KM, 4.3x for PR) while Hadoop's barely moves
(0.97x, 1.76x).

Motivation-study inputs (Section 2.2.1): KMeans with 40 vs 80 million
records, PageRank with 0.5 vs 1 million pages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.common.rng import derive_rng
from repro.experiments.common import Scale, execute_batch, render_table
from repro.odc import OdcSimulator
from repro.odc.confspace import hadoop_configuration_space
from repro.sparksim.confspace import spark_configuration_space
from repro.workloads import get_workload

#: (program, input-1, input-2) in natural units, per Section 2.2.1.
MOTIVATION_INPUTS = {"KM": (40.0, 80.0), "PR": (0.5, 1.0)}


def tvar(times: np.ndarray) -> float:
    """Equation (1): mean(Tmax - Ti)."""
    times = np.asarray(times, dtype=float)
    if len(times) == 0:
        raise ValueError("need at least one observation")
    return float(np.mean(times.max() - times))


@dataclass(frozen=True)
class Fig2Result:
    scale: str
    n_configs: int
    #: tvar[(framework, program)] = (Tvar input-1, Tvar input-2)
    tvars: Dict[Tuple[str, str], Tuple[float, float]]

    def ratio(self, framework: str, program: str) -> float:
        t1, t2 = self.tvars[(framework, program)]
        return t2 / t1

    def render(self) -> str:
        rows = []
        for (framework, program), (t1, t2) in sorted(self.tvars.items()):
            rows.append(
                [f"{framework}-{program}", f"{t1:.0f}", f"{t2:.0f}", f"{t2 / t1:.2f}x"]
            )
        return render_table(
            ["pair", "Tvar(input-1) s", "Tvar(input-2) s", "growth"],
            rows,
            "Figure 2: execution-time variation vs input size "
            f"({self.n_configs} random configs)",
        )

    @property
    def imc_more_sensitive(self) -> bool:
        """The figure's claim: every Spark growth ratio exceeds the
        corresponding Hadoop one."""
        return all(
            self.ratio("Spark", p) > self.ratio("Hadoop", p)
            for p in MOTIVATION_INPUTS
        )


def run(scale: Scale) -> Fig2Result:
    spark_space = spark_configuration_space()
    hadoop_space = hadoop_configuration_space()
    odc_sim = OdcSimulator()
    n = scale.fig2_configs

    tvars: Dict[Tuple[str, str], Tuple[float, float]] = {}
    for program, sizes in MOTIVATION_INPUTS.items():
        workload = get_workload(program)
        rng = derive_rng("fig2", program, scale.name)
        for framework in ("Spark", "Hadoop"):
            per_size = []
            for size in sizes:
                if framework == "Spark":
                    job = workload.job(size)
                    configs = spark_space.configurations(spark_space.sample(n, rng))
                    runs = execute_batch([(job, config) for config in configs])
                    times = [r.seconds for r in runs]
                else:
                    configs = hadoop_space.configurations(hadoop_space.sample(n, rng))
                    times = [
                        odc_sim.run(program, workload.bytes_for(size), config).seconds
                        for config in configs
                    ]
                per_size.append(tvar(np.array(times)))
            tvars[(framework, program)] = (per_size[0], per_size[1])
    return Fig2Result(scale=scale.name, n_configs=n, tvars=tvars)
