"""The repository benchmark: crawl workloads timed from outside the package.

``run.py`` is the command; ``workloads.py`` holds the crawl shapes,
``crawlbench.py`` the timed loop and the correctness check, and
``trace.py`` the span recorder behind ``--trace 1``.
"""
