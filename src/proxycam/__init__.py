"""proxycam: an edge-cloud pipeline that ships skeletal proxies, not people.

The edge strips every human pixel out of a frame and emits a sync-keyed
tuple of background, poses and occlusion order; the cloud classifies
behavior from the poses and re-renders an anonymized view of the scene. A
synthetic-scene simulator provides ground truth and a privacy auditor
attacks the pipeline's own output.
"""

__version__ = "0.1.0"
