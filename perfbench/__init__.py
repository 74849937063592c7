"""The repository benchmark: training and serving workloads, measured
end to end and layer by layer.  ``python3 perfbench/run.py --help``."""
