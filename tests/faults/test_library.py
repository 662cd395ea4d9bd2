import pytest

from repro.faults import FAULT_LIBRARY, get_fault_spec


class TestFaultLibrary:
    def test_table2_has_ten_rows(self):
        assert len(FAULT_LIBRARY) == 10

    def test_numbers_sequential(self):
        assert [s.number for s in FAULT_LIBRARY] == list(range(1, 11))

    def test_lookup_by_number_and_name(self):
        assert get_fault_spec(2).name == "TargetPortMisconfig"
        assert get_fault_spec("RevokeAuth").number == 3

    def test_lookup_by_name_number_and_fault_key(self):
        assert get_fault_spec("RevokeAuth").fault_key == "revoke_auth"
        assert get_fault_spec(3).fault_key == "revoke_auth"
        assert get_fault_spec("revoke_auth").name == "RevokeAuth"
        with pytest.raises(KeyError):
            get_fault_spec("")  # Noop's empty fault_key is not a spelling

    def test_lookup_missing(self):
        with pytest.raises(KeyError):
            get_fault_spec("NoSuchFault")

    def test_functional_faults_cover_all_levels(self):
        for n in range(1, 8):
            assert get_fault_spec(n).task_levels == (1, 2, 3, 4)

    def test_symptomatic_faults_limited_to_levels_1_2(self):
        """§3.3: symptomatic faults only instantiate detection and
        localization problems (no root cause to analyze or fix)."""
        for n in (8, 9):
            assert get_fault_spec(n).task_levels == (1, 2)

    def test_target_port_misconfig_has_three_social_targets(self):
        spec = get_fault_spec(2)
        assert spec.targets["SocialNetwork"] == (
            "user-service", "text-service", "post-storage-service")

    def test_every_fault_has_rca_ground_truth(self):
        for spec in FAULT_LIBRARY:
            if spec.injector != "none":
                assert spec.rca_system_level and spec.rca_fault_type

    def test_applications_valid(self):
        for spec in FAULT_LIBRARY:
            assert spec.application in ("HotelReservation", "SocialNetwork",
                                        "both")
